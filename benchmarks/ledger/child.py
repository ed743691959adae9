"""One repetition of one ledger workload, in a fresh process.

``run.py`` starts this file once per repetition so that set-up time and
peak memory are per workload and one workload's lazy imports never warm
the next.  The process takes its ``repro`` from ``PYTHONPATH`` (that is
how ``run.py pair`` alternates two source trees under one benchmark) and
prints one JSON object as the last line of its standard output.

Everything is measured **from outside**: the timers here sit around calls
into public functions of ``repro``; nothing in ``src/`` is instrumented.
Simulated statistics are deterministic at a fixed seed, so they are
compared for equality and reported as exact counts; only host time is
timed.

Three modes:

``setup``   import, build and ``prepare()`` everything, report ``setup_s``.
``timed``   set-up, then the workload's legs (``object`` and ``soa``) once
            each, interleaved, order flipped by the caller between
            repetitions.  Tracing is off: these are the end-to-end numbers.
``traced``  the per-layer pass.  For an engine workload the object
            engine's cycle is driven from here, phase by phase, mirroring
            ``Simulator._tick`` and ``Network.run_router_phases`` with a
            timer around every phase; its summary must equal that of
            ``Simulator.run``.  For a figure workload the points of the
            figure are re-enacted serially through ``prepare``/``run``/
            ``summary``, and the store, hash and pool layers are probed.
"""

from __future__ import annotations

import time

#: Set-up is timed from process entry, before ``import repro``.
ENTRY = time.perf_counter()

import contextlib
import csv
import dataclasses
import json
import os
import pickle
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

now = time.perf_counter


@dataclass(frozen=True)
class Engine:
    """One simulated point, run on every leg's backend."""

    design: str
    topology: str
    rate: float
    warmup: int
    measure: int
    telemetry: tuple = ()
    #: Also time the numpy backend in the traced pass.
    numpy: bool = False
    #: Also time snapshot/restore and the soa->object->soa handoff.
    checkpoint: bool = False


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
ENGINE = {
    "torus8_wbfc1_busy": Engine(
        "WBFC-1VC", "torus:8x8", 0.30, 500, 2500, numpy=True, checkpoint=True
    ),
    "mesh8_wbfc2_busy": Engine("WBFC-2VC", "mesh:8x8", 0.20, 500, 2500, numpy=True),
    "torus8_wbfc1_sparse": Engine("WBFC-1VC", "torus:8x8", 0.0005, 0, 150_000),
    "torus8_wbfc1_probed": Engine(
        "WBFC-1VC",
        "torus:8x8",
        0.30,
        500,
        2500,
        telemetry=("counters", "histograms", "timeseries"),
    ),
}
#: Figure workloads: name -> does the timed call start from an empty store?
FIGURE = {"fig10_ur_cold": True, "fig10_ur_warm": False}
#: Figure 10's UR row at CI scale (``runner._CI``), scaled by ``--scale``.
FIG_RADIX, FIG_WARMUP, FIG_MEASURE, FIG_SWEEP_POINTS = 4, 500, 2500, 6
FIG_WORKERS = 2
WARM_ITERATIONS = 200
LEGS = ("object", "soa")


class Ops:
    """Operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; ``what`` names it when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what)
        return ok

    @contextlib.contextmanager
    def attempt(self, what: str):
        """One operation that fails by raising (deadlock watchdog included).

        The repetition goes on to its other legs, so this is the boundary
        that records the traceback and reports the failure.
        """
        self.attempted += 1
        try:
            yield
        except Exception as exc:
            traceback.print_exc()
            self.failed += 1
            self.reasons.append(f"{what}: {exc!r}")


class Trace:
    """Spans kept in memory, written as CSV when the pass ends.

    A row is ``name,start,end,parent,id,busy_s,calls``.  An ordinary span
    was entered once and ``busy_s == end - start``.  A per-phase row of the
    driven cycle loop aggregates every call of that phase in one leg: its
    ``start``/``end`` are the leg's, ``busy_s`` the summed time inside the
    phase and ``calls`` how often it ran, so the leg's self time is its
    duration minus its children's ``busy_s``.
    """

    def __init__(self) -> None:
        self.rows: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, parent: dict | None = None):
        row = {
            "id": len(self.rows) + 1,
            "name": name,
            "parent": parent["id"] if parent else 0,
            "start": now(),
            "calls": 1,
        }
        self.rows.append(row)
        try:
            yield row
        finally:
            row["end"] = now()
            row["busy_s"] = row["end"] - row["start"]

    def aggregate(self, name: str, parent: dict, busy_s: float, calls: int) -> None:
        self.rows.append(
            {
                "id": len(self.rows) + 1,
                "name": name,
                "parent": parent["id"],
                "start": parent["start"],
                "end": parent["end"],
                "busy_s": busy_s,
                "calls": calls,
            }
        )

    def write(self, path: Path) -> None:
        fields = ["name", "start", "end", "parent", "id", "busy_s", "calls"]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(self.rows)


def registered_backends() -> list[str]:
    """Engine backends this source tree has; a leg on any other is absent."""
    try:
        from repro.registry import ENGINE_BACKENDS
    except ImportError:  # a tree from before the backend seam (run.py pair)
        return ["object"]
    return ENGINE_BACKENDS.names()


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its waited-for children."""
    peak = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return peak / 1024.0  # Linux reports KiB


# -- engine workloads ----------------------------------------------------------


def engine_spec(wl: Engine, seed: int, scale: float, backend: str = "object"):
    from repro.sim.spec import ScenarioSpec

    fields = dict(
        design=wl.design,
        topology=wl.topology,
        pattern="UR",
        injection_rate=wl.rate,
        seed=seed,
        warmup=int(wl.warmup * scale),
        measure=int(wl.measure * scale),
        telemetry=wl.telemetry,
    )
    if backend != "object":  # trees from before the backend seam lack the field
        fields["backend"] = backend
    return ScenarioSpec(**fields)


def run_protocol(prepared, run=None) -> None:
    """The warmup/measure protocol of ``execute()``; ``run(cycles)`` drives."""
    spec, collector = prepared.spec, prepared.collector
    simulator = prepared.simulator
    run = run or simulator.run
    run(spec.warmup)
    collector.begin(simulator.cycle)
    run(spec.measure)
    collector.end(simulator.cycle)


def summarise(prepared):
    """``execute()``'s summary step, telemetry report included."""
    summary = prepared.collector.summary()
    if prepared.telemetry is not None:
        summary = dataclasses.replace(summary, telemetry=prepared.telemetry.report())
    return summary


def network_state(prepared) -> dict:
    """Every simulated statistic a snapshot carries across a restore."""
    network = prepared.network
    return {
        "activity": dict(network.activity),
        "fc_stats": dict(getattr(network.flow_control, "stats", {})),
        "packets_ejected": network.packets_ejected,
    }


def outcome(prepared, summary) -> dict:
    """Every simulated statistic two bit-identical runs must agree on."""
    return {"summary": dataclasses.asdict(summary), **network_state(prepared)}


def timed_leg(prepared) -> dict:
    t0 = now()
    run_protocol(prepared)
    t1 = now()
    summary = summarise(prepared)
    t2 = now()
    return {
        "run_s": t1 - t0,
        "summary_s": t2 - t1,
        "outcome": outcome(prepared, summary),
    }


def engine_timed(wl: Engine, args: dict, ops: Ops) -> dict:
    from repro.sim.spec import prepare

    have = registered_backends()
    prepared, prepare_s = {}, {}
    for leg in LEGS:
        if leg in have:
            t0 = now()
            prepared[leg] = prepare(engine_spec(wl, args["seed"], args["scale"], leg))
            prepare_s[leg] = now() - t0
    m = {"setup_s": now() - ENTRY}
    result = {"metrics": m}
    if args["mode"] == "setup":
        return result
    legs = {}
    for leg in reversed(LEGS) if args["flip"] else LEGS:
        if leg in prepared:
            with ops.attempt(f"{leg} leg"):
                legs[leg] = timed_leg(prepared[leg])
    cycles = prepared["object"].spec.warmup + prepared["object"].spec.measure
    for leg, run in legs.items():
        m[f"cycles_per_s.{leg}"] = cycles / run["run_s"]
        if leg != "object" and "object" in legs:
            ops.check(
                run["outcome"] == legs["object"]["outcome"],
                f"{leg} leg differs from object",
            )
    if "object" in legs:
        run = legs["object"]
        m["figure_s"] = prepare_s["object"] + run["run_s"] + run["summary_s"]
    result["backend_ran"] = {
        leg: getattr(p, "backend", "object") for leg, p in prepared.items()
    }
    return result


def drive_cycles(simulator, cycles: int, busy: list[float], counts: dict) -> None:
    """``Simulator.run(cycles)`` on the object engine, one timer per phase.

    Mirrors ``Simulator._advance``/``_tick`` and
    ``Network.run_router_phases`` through their public callees, in their
    order; the caller checks that the summary equals ``Simulator.run``'s,
    so a drift between this loop and the engine shows as a failed
    operation, never as a wrong number.
    """
    network = simulator.network
    routers = network.routers
    flow_control = network.flow_control
    workload = simulator.workload
    watchdog = simulator.watchdog
    listeners = simulator.cycle_listeners
    end = simulator.cycle + cycles
    while simulator.cycle < end:
        cycle = simulator.cycle
        if simulator.skip_idle and network.is_quiescent():
            t0 = now()
            skipped = simulator._skip_to_wake(end)
            busy[0] += now() - t0
            if skipped:
                counts["skipped"] += simulator.cycle - cycle
                continue
        rc, va, sa = network.phase_routers
        t0 = now()
        network.begin_cycle(cycle)
        t1 = now()
        workload.step(cycle, network)
        t2 = now()
        network.load_nics(cycle)
        t3 = now()
        nodes = sorted(rc)
        for node in nodes:
            routers[node].route_compute(cycle)
        counts["rc_visits"] += len(nodes)
        t4 = now()
        flow_control.pre_cycle(cycle)
        t5 = now()
        nodes = sorted(va)
        for node in nodes:
            routers[node].vc_allocate(cycle)
        counts["va_visits"] += len(nodes)
        t6 = now()
        nodes = sorted(sa)
        for node in nodes:
            routers[node].switch_allocate(cycle)
        counts["sa_visits"] += len(nodes)
        t7 = now()
        watchdog.observe(cycle)
        t8 = now()
        for listener in listeners:
            listener(cycle)
        t9 = now()
        simulator.cycle = cycle + 1
        counts["ticked"] += 1
        busy[1] += t1 - t0
        busy[2] += t2 - t1
        busy[3] += t3 - t2
        busy[4] += t4 - t3
        busy[5] += t5 - t4
        busy[6] += t6 - t5
        busy[7] += t7 - t6
        busy[8] += t8 - t7
        busy[9] += t9 - t8


#: ``busy`` slots of :func:`drive_cycles`, in order.
PHASES = (
    "sim.engine.skip_s",
    "network.deliver_s",
    "traffic.step_s",
    "network.nic_load_s",
    "network.rc_s",
    "core.pre_cycle_s",
    "network.va_s",
    "network.sa_st_s",
    "sim.deadlock.observe_s",
    "telemetry.listeners_s",
)


def backend_leg(name: str, spec, trace: Trace, root: dict):
    """Load backend ``name`` over a prepared object simulator and run it.

    Returns ``(load_s, run_s, witness, outcome)``; a backend that refuses
    the configuration leaves the object engine in place, as ``prepare``
    does, and ``witness`` says why.
    """
    from repro.registry import ENGINE_BACKENDS
    from repro.sim.engine import BackendUnsupported
    from repro.sim.spec import prepare

    prepared = prepare(spec)
    witness = None
    with trace.span(f"load.{name}", root) as load:
        try:
            prepared.simulator = ENGINE_BACKENDS.create(name, prepared.simulator)
        except BackendUnsupported as exc:
            witness = f"{name}: {exc.reason} {exc.witness!r}"
    with trace.span(f"run.{name}", root) as run:
        run_protocol(prepared)
    return load["busy_s"], run["busy_s"], witness, outcome(prepared, summarise(prepared))


def engine_traced(wl: Engine, args: dict, ops: Ops, trace: Trace, tmp: Path) -> dict:
    from repro.sim.spec import prepare

    spec = engine_spec(wl, args["seed"], args["scale"])
    cycles = spec.warmup + spec.measure
    m: dict[str, float] = {}
    with trace.span(args["workload"]) as root:
        # Each ratio's two runs are adjacent in time (the host drifts):
        # skipping off, then the reference, then the driven loop.
        ticking = prepare(spec)
        ticking.simulator.skip_idle = False
        with trace.span("run.object.skip_idle_off", root) as span:
            run_protocol(ticking)
        ticking_wall = span["busy_s"]

        # The reference: Simulator.run, untraced.
        with trace.span("sim.spec.prepare_s", root) as span:
            reference = prepare(spec)
        m["sim.spec.prepare_s"] = span["busy_s"]
        with trace.span("sim.engine.run_s", root) as span:
            run_protocol(reference)
        m["sim.engine.run_s"] = wall = span["busy_s"]
        with trace.span("metrics.stats.summary_s", root) as span:
            summary = summarise(reference)
        m["metrics.stats.summary_s"] = span["busy_s"]
        expected = outcome(reference, summary)
        m["sim.engine.skip_gain"] = ticking_wall / wall
        ops.check(
            outcome(ticking, summarise(ticking)) == expected,
            "skip_idle=False differs from skip_idle=True",
        )

        # The same run, its cycle driven from here with a timer per phase.
        driven = prepare(spec)
        busy = [0.0] * len(PHASES)
        counts = dict.fromkeys(
            ("ticked", "skipped", "rc_visits", "va_visits", "sa_visits"), 0
        )
        with trace.span("driven.object", root) as span:
            run_protocol(
                driven, lambda n: drive_cycles(driven.simulator, n, busy, counts)
            )
        calls = counts["ticked"]
        for name, seconds in zip(PHASES, busy):
            trace.aggregate(name, span, seconds, calls)
            m[name] = seconds
        ops.check(
            outcome(driven, summarise(driven)) == expected,
            "driven cycle loop differs from Simulator.run",
        )
        ops.check(
            counts["ticked"] + counts["skipped"] == cycles,
            "ticked + skipped != cycles",
        )
        m["trace.overhead_frac"] = span["busy_s"] / wall - 1.0
        m["trace.span_coverage"] = sum(busy) / span["busy_s"]
        m["sim.engine.cycles_ticked"] = counts["ticked"]
        m["sim.engine.cycles_skipped"] = counts["skipped"]
        for phase in ("rc", "va", "sa"):
            m[f"network.{phase}_visits"] = counts[f"{phase}_visits"]

        # Exact work counts: any change means the simulation changed.
        activity = expected["activity"]
        m["network.flit_hops"] = activity["link_traversals"]
        m["network.va_grants"] = activity["va_grants"]
        m["network.buffer_writes"] = activity["buffer_writes"]
        m["network.packets_ejected"] = expected["packets_ejected"]
        m["network.va_grant_ratio"] = activity["va_grants"] / max(counts["va_visits"], 1)
        for name in ("marks", "displacements", "reclaims", "gray_grabs"):
            m[f"core.{name}"] = expected["fc_stats"].get(name, 0)
        hops = max(activity["link_traversals"], 1)
        m["network.us_per_flit_hop.object"] = wall / hops * 1e6

        # The array backends, loaded over a prepared object simulator.
        fallbacks = []
        for name, prefix in (("soa", "sim.soa"), ("numpy", "sim.vectorized")):
            if name not in registered_backends() or (name == "numpy" and not wl.numpy):
                continue
            load_s, run_s, witness, got = backend_leg(name, spec, trace, root)
            ops.check(got == expected, f"{name} differs from object")
            m[f"{prefix}.load_s"], m[f"{prefix}.run_s"] = load_s, run_s
            if witness:
                fallbacks.append(witness)
        if "sim.soa.run_s" in m:
            m["network.us_per_flit_hop.soa"] = m["sim.soa.run_s"] / hops * 1e6
        if "sim.vectorized.run_s" in m:
            m["sim.vectorized.cycles_per_s"] = cycles / m["sim.vectorized.run_s"]
        m["sim.spec.fallbacks"] = len(fallbacks)

        if wl.telemetry:
            # The price of the probes: the same point with none attached.
            bare = prepare(dataclasses.replace(spec, telemetry=()))
            with trace.span("run.object.unprobed", root) as span:
                run_protocol(bare)
            m["telemetry.probe_overhead_frac"] = wall / span["busy_s"] - 1.0
        if wl.checkpoint:
            m.update(checkpoint_probe(spec, expected, ops, trace, root))
        keywords = dict(
            warmup=spec.warmup,
            measure=spec.measure,
            seed=spec.seed,
            telemetry=spec.telemetry,
        )
        probe, _ = store_probe(
            spec.topology, [(wl.design, wl.rate)], keywords, [summary],
            ops, trace, root, tmp,
        )
        m.update(probe)
    return {"metrics": m, "witness": fallbacks}


def checkpoint_probe(spec, expected, ops, trace, root) -> dict:
    """Snapshot/restore at mid-run and a soa -> object -> soa handoff."""
    from repro.sim.spec import prepare

    half = (spec.warmup + spec.measure) // 2
    rest = spec.warmup + spec.measure - half
    want = {key: expected[key] for key in ("activity", "fc_stats", "packets_ejected")}
    m = {}

    paused = prepare(spec)
    paused.simulator.run(half)
    with trace.span("sim.checkpoint.snapshot_s", root) as span:
        snapshot = paused.simulator.snapshot()
    m["sim.checkpoint.snapshot_s"] = span["busy_s"]
    m["sim.checkpoint.snapshot_bytes"] = len(
        pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
    )
    resumed = prepare(spec)
    with trace.span("sim.checkpoint.restore_s", root) as span:
        resumed.simulator.restore(snapshot)
    m["sim.checkpoint.restore_s"] = span["busy_s"]
    resumed.simulator.run(rest)
    ops.check(network_state(resumed) == want, "restored run differs from unpaused")

    if "soa" in registered_backends():
        soa_spec = dataclasses.replace(spec, backend="soa")
        first, middle, last = prepare(soa_spec), prepare(spec), prepare(soa_spec)
        first.simulator.run(half)
        with trace.span("sim.soa.handoff_s", root) as span:
            middle.simulator.restore(first.simulator.snapshot())
            last.simulator.restore(middle.simulator.snapshot())
        m["sim.soa.handoff_s"] = span["busy_s"]
        last.simulator.run(rest)
        ops.check(network_state(last) == want, "handed-off run differs from unpaused")
    return m


# -- hash and store layers, shared by both kinds of workload ------------------


def store_probe(
    topology, points, keywords, summaries, ops, trace, root, tmp
) -> tuple[dict, list]:
    """Spec build, content hash and ``ResultStore`` miss/put/hit per point.

    ``points`` are ``(design, rate)`` pairs; ``keywords`` the
    ``scenario_spec`` keywords they share.  Returns the metrics and the
    built specs.
    """
    from repro.metrics.sweep import scenario_spec
    from repro.sim.checkpoint import ResultStore

    m = {}
    with trace.span("metrics.sweep.spec_build_s", root) as span:
        specs = [
            scenario_spec(design, topology, "UR", rate, **keywords)
            for design, rate in points
        ]
    m["metrics.sweep.spec_build_s"] = span["busy_s"]
    with trace.span("sim.spec.content_hash_s", root) as span:
        for spec in specs:
            spec.content_hash()
    m["sim.spec.content_hash_s"] = span["busy_s"]
    m["sim.spec.content_hash_us_per_call"] = span["busy_s"] / len(specs) * 1e6
    store = ResultStore(tmp / "probe-store")
    with trace.span("sim.checkpoint.get_miss_s", root) as span:
        misses = [store.get(spec) for spec in specs]
    m["sim.checkpoint.get_miss_s"] = span["busy_s"]
    with trace.span("sim.checkpoint.put_s", root) as span:
        for spec, summary in zip(specs, summaries):
            store.put(spec, summary)
    m["sim.checkpoint.put_s"] = span["busy_s"]
    with trace.span("sim.checkpoint.get_hit_s", root) as span:
        hits = [store.get(spec) for spec in specs]
    m["sim.checkpoint.get_hit_s"] = span["busy_s"]
    m["sim.checkpoint.store_bytes"] = sum(
        entry.stat().st_size for entry in Path(store.path).iterdir()
    )
    ops.check(all(miss is None for miss in misses), "empty store answered a get")
    ops.check(
        [h and dataclasses.asdict(h) for h in hits]
        == [dataclasses.asdict(s) for s in summaries],
        "store returned a different summary than was put",
    )
    return m, specs


# -- figure workloads ------------------------------------------------------------


class Figure:
    """``latency_load_study`` for Figure 10's UR row, against a chosen store."""

    def __init__(self, args: dict, tmp: Path):
        from repro.experiments.designs import PAPER_DESIGNS
        from repro.experiments.fig10 import latency_load_study
        from repro.experiments.runner import Scale

        self.call = latency_load_study
        self.seed = args["seed"]
        self.tmp = tmp
        self.designs = PAPER_DESIGNS
        self.scale = Scale(
            "ledger",
            int(FIG_WARMUP * args["scale"]),
            int(FIG_MEASURE * args["scale"]),
            FIG_SWEEP_POINTS,
            60,
        )
        #: One zero-load anchor plus ``sweep_points`` rates per design.
        self.points = len(self.designs) * (FIG_SWEEP_POINTS + 1)
        self.cycles = self.points * (self.scale.warmup + self.scale.measure)
        self.stores = 0

    def fresh_store(self) -> str:
        self.stores += 1
        path = self.tmp / f"store-{self.stores}"
        path.mkdir(parents=True)
        return str(path)

    def study(self, store: str, backend: str, workers: int):
        """The figure call, as a user would make it; returns (study, wall s)."""
        os.environ["REPRO_RESULT_STORE"] = store
        os.environ["REPRO_BACKEND"] = backend
        t0 = now()
        study = self.call(
            FIG_RADIX,
            patterns=("UR",),
            designs=self.designs,
            scale=self.scale,
            seed=self.seed,
            workers=workers,
        )
        return study, now() - t0


def curves_of(study) -> dict:
    return {
        "/".join(key): [dataclasses.asdict(p.summary) for p in curve.points]
        for key, curve in study.curves.items()
    }


def figure_timed(cold: bool, args: dict, ops: Ops, tmp: Path) -> dict:
    from repro.sim.checkpoint import ResultStore
    from repro.sim.spec import execution_stats, reset_execution_stats

    figure = Figure(args, tmp)
    have = registered_backends()
    legs = [leg for leg in (reversed(LEGS) if args["flip"] else LEGS) if leg in have]
    m = {"setup_s": now() - ENTRY}
    result = {"metrics": m}
    if args["mode"] == "setup":
        return result
    walls: dict[str, list[float]] = {leg: [] for leg in legs}
    reference = None
    if cold:
        for leg in legs:
            with ops.attempt(f"cold figure on {leg}"):
                store = figure.fresh_store()
                study, wall = figure.study(store, leg, FIG_WORKERS)
                walls[leg].append(wall)
                ops.check(
                    len(ResultStore(store)) == figure.points,
                    f"{leg}: store entries != points",
                )
                if reference is None:
                    reference = curves_of(study)
                else:
                    ops.check(curves_of(study) == reference, f"{leg} curves differ")
    else:
        store = figure.fresh_store()
        study, _ = figure.study(store, "object", FIG_WORKERS)
        reference = curves_of(study)
        served = {"simulated": 0, "cache_hits": figure.points}
        for _ in range(WARM_ITERATIONS):
            for leg in legs:
                with ops.attempt(f"warm figure on {leg}"):
                    reset_execution_stats()
                    study, wall = figure.study(store, leg, 1)
                    walls[leg].append(wall)
                    ops.check(
                        execution_stats() == served and curves_of(study) == reference,
                        f"warm {leg}: simulated a point, missed the store, or "
                        "curves differ from the cold run",
                    )
    for leg, samples in walls.items():
        if samples:
            m[f"cycles_per_s.{leg}"] = figure.cycles / statistics.median(samples)
    if walls.get("object"):
        m["figure_s"] = statistics.median(walls["object"])
    return result


def paper_gaps(study) -> dict:
    """Distance from the paper's Fig. 10 UR saturation ratios (0 = equal)."""
    wbfc1, dl2, wbfc2 = (
        study.curves[("UR", design)].saturation()
        for design in ("WBFC-1VC", "DL-2VC", "WBFC-2VC")
    )
    return {
        "paper_gap.dl2_vs_wbfc1_ur": abs(dl2 / wbfc1 / 1.5 - 1.0),
        "paper_gap.wbfc2_vs_dl2_ur": abs(wbfc2 / dl2 / 1.46 - 1.0),
    }


def figure_traced(cold: bool, args: dict, ops: Ops, trace: Trace, tmp: Path) -> dict:
    from repro.experiments.fig10 import render_study
    from repro.sim.checkpoint import ResultStore
    from repro.sim.spec import execution_stats, prepare, reset_execution_stats

    figure = Figure(args, tmp)
    m: dict[str, float] = {}
    with trace.span(args["workload"]) as root:
        store = figure.fresh_store()
        with trace.span("latency_load_study.cold.workers2", root):
            study, cold_wall = figure.study(store, "object", FIG_WORKERS)
        m.update(paper_gaps(study))
        points, summaries = [], []
        for (_, design), curve in study.curves.items():
            for p in curve.points:
                points.append((design, p.injection_rate))
                summaries.append(p.summary)
        keywords = dict(
            warmup=figure.scale.warmup, measure=figure.scale.measure, seed=figure.seed
        )
        probe, specs = store_probe(
            f"torus:{FIG_RADIX}x{FIG_RADIX}", points, keywords, summaries,
            ops, trace, root, tmp,
        )
        m.update(probe)

        if cold:
            # execute() per point, serially, one timer per step of a point.
            m["sim.spec.simulated_points"] = len(ResultStore(store))
            m["sim.spec.cache_hits"] = 0
            steps = dict.fromkeys(
                ("sim.spec.prepare_s", "sim.engine.run_s", "metrics.stats.summary_s"),
                0.0,
            )
            per_point = []
            for spec, expected in zip(specs, summaries):
                with trace.span("point", root) as point:
                    with trace.span("sim.spec.prepare_s", point) as span:
                        prepared = prepare(spec)
                    steps["sim.spec.prepare_s"] += span["busy_s"]
                    with trace.span("sim.engine.run_s", point) as span:
                        run_protocol(prepared)
                    steps["sim.engine.run_s"] += span["busy_s"]
                    with trace.span("metrics.stats.summary_s", point) as span:
                        summary = summarise(prepared)
                    steps["metrics.stats.summary_s"] += span["busy_s"]
                per_point.append(point["busy_s"])
                ops.check(
                    dataclasses.asdict(summary) == dataclasses.asdict(expected),
                    f"serial point {spec.design}@{spec.injection_rate} differs "
                    "from the pooled figure",
                )
            m.update(steps)
            m["sim.spec.execute_s.p50"] = statistics.median(per_point)
            m["sim.spec.execute_s.max"] = max(per_point)
            m["metrics.parallel.speedup"] = sum(per_point) / cold_wall

        # Pool cost, isolated: every point cached, 1 worker against 2.
        warm = {}
        for workers in (1, FIG_WORKERS):
            walls = []
            for _ in range(5):
                reset_execution_stats()
                with trace.span(f"latency_load_study.warm.workers{workers}", root):
                    again, wall = figure.study(store, "object", workers)
                walls.append(wall)
            warm[workers] = statistics.median(walls)
            if workers == 1 and not cold:
                stats = execution_stats()
                m["sim.spec.simulated_points"] = stats["simulated"]
                m["sim.spec.cache_hits"] = stats["cache_hits"]
            ops.check(curves_of(again) == curves_of(study), "warm curves differ")
        pools = len(study.curves)  # one pool per sweep of more than one point
        m["metrics.parallel.pools_per_figure"] = pools
        m["metrics.parallel.warm_figure_ms.workers1"] = warm[1] * 1e3
        m["metrics.parallel.warm_figure_ms.workers2"] = warm[FIG_WORKERS] * 1e3
        m["metrics.parallel.pool_startup_ms"] = (
            (warm[FIG_WORKERS] - warm[1]) / pools * 1e3
        )
        with trace.span("experiments.fig10.render_s", root) as span:
            render_study(study)
        m["experiments.fig10.render_s"] = span["busy_s"]
    return {
        "metrics": m,
        "saturation": {
            design: study.curves[("UR", design)].saturation()
            for design in figure.designs
        },
    }


# -- entry -------------------------------------------------------------------------


def traced_pass(args: dict, ops: Ops, trace: Trace, tmp: Path) -> dict:
    name = args["workload"]
    if name in ENGINE:
        return engine_traced(ENGINE[name], args, ops, trace, tmp)
    return figure_traced(FIGURE[name], args, ops, trace, tmp)


def main(argv: list[str]) -> int:
    args = json.loads(argv[1])
    name = args["workload"]
    out = Path(args["out"])
    tmp = out / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True)
    ops = Ops()
    load = os.getloadavg()[0]
    try:
        if args["mode"] == "traced":
            trace = Trace()
            result = traced_pass(args, ops, trace, tmp)
            trace.write(out / f"trace-{name}-seed{args['seed']}.csv")
        elif name in ENGINE:
            result = engine_timed(ENGINE[name], args, ops)
        else:
            result = figure_timed(FIGURE[name], args, ops, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args["mode"] != "traced":
        result["metrics"]["peak_rss_mb"] = peak_rss_mb()
    result.update(
        loadavg=load,
        attempted=ops.attempted,
        failed=ops.failed,
        reasons=ops.reasons,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
