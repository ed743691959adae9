"""The perf ledger: one command for every workload, metric and comparison.

From the repository root::

    python3 benchmarks/ledger/run.py --seed 1 [--traced]        # every workload
    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/ledger/run.py compare A.json B.json
    python3 benchmarks/ledger/run.py pair --src-a DIR --src-b DIR --pairs 10

The second form is the contract of ``BENCHMARK.json``: one workload, one
pass, one JSON object on the last line of standard output.  The first
form loops it over every workload, prints each metric by name with unit,
median, quartiles and sample count, and writes the samples to a result
file that ``compare`` reads.  README.md beside this file is the glossary.

This process never imports ``repro``.  Each repetition of a workload is a
fresh ``child.py`` process whose ``PYTHONPATH`` names the source tree, so
set-up time and peak memory are measured per workload, and ``pair`` can
alternate two trees under identical benchmark code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
#: A run reports the median of at least this many set-ups; repetitions
#: supply the first ones and set-up-only children the rest.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def spawn(src: Path, payload: dict) -> dict:
    """Run one ``child.py`` to completion and return the object it printed."""
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no repro package under {src}")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    OUT.mkdir(exist_ok=True)
    # Its own session, so a timeout can stop the pool workers with it.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps({**payload, "out": str(OUT)})],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"{payload['workload']}: child exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"{payload['workload']}: child exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, src: Path, scale: float) -> dict:
    """One pass over one workload: the record ``compare`` and the contract read."""
    payload = dict(workload=workload, seed=seed, scale=scale, flip=False)
    if trace:
        child = spawn(src, {**payload, "mode": "traced"})
        return dict(
            workload=workload,
            seed=seed,
            values=child["metrics"],
            witness=child.get("witness", []),
            saturation=child.get("saturation"),
            attempted=child["attempted"],
            failed=child["failed"],
            reasons=child["reasons"],
            loadavg=[child["loadavg"]],
        )
    # As many repetitions as bring the measured time nearest to ``seconds``:
    # another one starts while at least half of it is expected to fit.
    reps = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        # Leg order alternates between repetitions, and between seeds.
        flip = (seed + len(reps)) % 2 == 1
        reps.append(spawn(src, {**payload, "mode": "timed", "flip": flip}))
        now = time.perf_counter()
        if now - start + (now - t0) / 2 > seconds:
            break
    record = fold(reps)
    setups = record["samples"]["setup_s"]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(src, {**payload, "mode": "setup"})["metrics"]["setup_s"])
    return dict(workload=workload, seed=seed, **record)


def fold(reps: list[dict]) -> dict:
    """The repetitions of one workload as one record: a sample per metric each."""
    samples: dict[str, list[float]] = {}
    for rep in reps:
        for name, value in rep["metrics"].items():
            samples.setdefault(name, []).append(value)
    return dict(
        samples=samples,
        backend_ran=reps[0].get("backend_ran"),
        attempted=sum(rep["attempted"] for rep in reps),
        failed=sum(rep["failed"] for rep in reps),
        reasons=[reason for rep in reps for reason in rep["reasons"]],
        loadavg=[rep["loadavg"] for rep in reps],
    )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def contract_line(record: dict, contract: dict, trace: bool) -> dict:
    """The object the contract wants on the last line of standard output."""
    metrics = {}
    if trace:
        # A layer this workload never enters has done no work: 0.
        for spec in contract["per_layer"]:
            value = record["values"].get(spec["name"], 0.0)
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    else:
        for spec in contract["end_to_end"]:
            values = record["samples"].get(spec["name"])
            if values:
                metrics[spec["name"]] = {
                    "value": statistics.median(values),
                    "unit": spec["unit"],
                }
    return {
        "correct": record["failed"] == 0,
        "attempted": max(record["attempted"], 1),
        "failed": record["failed"],
        "metrics": metrics,
    }


# -- every workload ------------------------------------------------------------------


def git_rev() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def print_rows(workload: str, record: dict, contract: dict, trace: bool) -> None:
    if trace:
        for spec in contract["per_layer"]:
            if spec["name"] in record["values"]:
                value = record["values"][spec["name"]]
                print(f"{workload:22} {spec['name']:42} {value:>14.6g} {spec['unit']}")
        for witness in record["witness"]:
            print(f"{workload:22} fallback witness: {witness}")
        if record["saturation"]:
            row = " ".join(f"{d} {s:.3f}" for d, s in record["saturation"].items())
            print(f"{workload:22} UR saturation: {row}")
        return
    for spec in contract["end_to_end"]:
        values = record["samples"].get(spec["name"])
        if values:
            q1, q2, q3 = quartiles(values)
            print(
                f"{workload:22} {spec['name']:42} {q2:>14.6g} {spec['unit']:6}"
                f" q1 {q1:.6g} q3 {q3:.6g} n {len(values)}"
            )


def run_suite(args, contract: dict) -> int:
    names = [w["name"] for w in contract["workloads"]]
    result = {
        "meta": {
            "git_rev": git_rev(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "seconds": args.seconds,
            "scale": args.scale,
            "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "claim": None,
        },
        "workloads": {},
    }
    failed = 0
    for name in names:
        passes = {}
        for trace in (False, True) if args.traced else (False,):
            record = measure(name, args.seed, args.seconds, trace, args.src, args.scale)
            print_rows(name, record, contract, trace)
            print(
                f"{name:22} {'ops_failed / ops_attempted':42} "
                f"{record['failed']} / {record['attempted']} {record['reasons'] or ''}"
            )
            failed += record["failed"]
            passes["per_layer" if trace else "end_to_end"] = record
        result["workloads"][name] = passes
    out = Path(args.out) if args.out else OUT / f"ledger-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(f"wrote {out}")
    return 1 if failed else 0


def cmd_run(argv: list[str]) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="add the per-layer pass")
    parser.add_argument("--out", help="result file of a run over every workload")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="PYTHONPATH of the children")
    parser.add_argument("--scale", type=float, default=1.0, help="shrink simulated cycles (tests)")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_suite(args, contract)
    trace = bool(args.trace)
    record = measure(args.workload, args.seed, args.seconds, trace, args.src, args.scale)
    for reason in record["reasons"]:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps(contract_line(record, contract, trace)))
    return 0


# -- compare ---------------------------------------------------------------------------


def verdict(better: str, bound: float, a: list[float], b: list[float]) -> tuple[str, float, float]:
    """How B reads against A: (better|same|worse|unresolved, gain, spread).

    ``gain`` is B's median over A's minus one, signed so that positive is
    better; ``spread`` the wider of the two sides' interquartile range over
    median.  Beyond the bound is better or worse.  When the spread exceeds
    the bound the medians cannot carry that, and the row is unresolved
    unless every run of one side beats every run of the other.
    """
    sign = 1.0 if better == "higher" else -1.0
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    gain = sign * (bm - am) / am
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    disjoint = min(b) > max(a) or max(b) < min(a)
    if spread > bound and not disjoint:
        return "unresolved", gain, spread
    if gain < -bound:
        return "worse", gain, spread
    if gain > bound:
        return "better", gain, spread
    return "same", gain, spread


def is_exact(spec: dict) -> bool:
    """Simulated, hence identical between two runs of one simulation."""
    return spec["unit"] == "count" or spec["name"].startswith("paper_gap.")


def compare(a: dict, b: dict, contract: dict) -> tuple[list[str], int]:
    """Report lines and exit code for result B against result A."""
    lines, worse = [], 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        ea, eb = wa["end_to_end"], wb["end_to_end"]
        for spec in contract["end_to_end"]:
            sa, sb = ea["samples"].get(spec["name"]), eb["samples"].get(spec["name"])
            if not sa or not sb:
                lines.append(f"{name:22} {spec['name']:28} absent")
                continue
            word, gain, spread = verdict(spec["better"], spec["bound"], sa, sb)
            worse += word == "worse"
            lines.append(
                f"{name:22} {spec['name']:28} {word:10} "
                f"{statistics.median(sa):.6g} -> {statistics.median(sb):.6g} {spec['unit']}"
                f"  gain {gain:+.1%} spread {spread:.1%} bound {spec['bound']:.0%}"
                f" n {len(sa)}/{len(sb)}"
            )
        share_a = ea["failed"] / max(ea["attempted"], 1)
        share_b = eb["failed"] / max(eb["attempted"], 1)
        if share_b > share_a:
            worse += 1
            lines.append(f"{name:22} ops_failed share rose {share_a:.3f} -> {share_b:.3f}")
        la, lb = wa.get("per_layer"), wb.get("per_layer")
        if la and lb:
            for spec in contract["per_layer"]:
                va, vb = la["values"].get(spec["name"]), lb["values"].get(spec["name"])
                if is_exact(spec) and va != vb:
                    lines.append(
                        f"{name:22} {spec['name']:28} simulation changed {va} -> {vb}"
                    )
    return lines, 1 if worse else 0


def cmd_compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    results = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as fh:
            results.append(json.load(fh))
    lines, code = compare(*results, load_contract())
    print("\n".join(lines))
    return code


# -- pair ----------------------------------------------------------------------------------


def paired_call(better: str, pairs: list[tuple[float, float]]) -> str:
    """The guide's rule for a claim from alternating pairs of (A, B) runs.

    B is called better (or worse) only when it wins (loses) at least nine
    tenths of the pairs, ties counting for neither, and the medians differ
    by more than the distance between the quartiles of A's own runs.
    """
    sign = 1.0 if better == "higher" else -1.0
    b_wins = sum(sign * (b - a) > 0 for a, b in pairs)
    a_wins = sum(sign * (b - a) < 0 for a, b in pairs)
    a1, am, a3 = quartiles([a for a, _ in pairs])
    bm = statistics.median(b for _, b in pairs)
    gain, spread = sign * (bm - am) / am, (a3 - a1) / am
    call = "no call"
    if abs(gain) > spread and max(a_wins, b_wins) >= 0.9 * len(pairs):
        call = "B better" if b_wins > a_wins else "B worse"
    return (
        f"{call:9} B wins {b_wins}, A wins {a_wins} of {len(pairs)} pairs;"
        f" median {am:.6g} -> {bm:.6g} ({gain:+.1%}), A's quartile spread {spread:.1%}"
    )


def cmd_pair(argv: list[str]) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(prog="run.py pair")
    parser.add_argument("--src-a", type=Path, required=True, help="PYTHONPATH of side A")
    parser.add_argument("--src-b", type=Path, required=True, help="PYTHONPATH of side B")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    sides = {"A": args.src_a.resolve(), "B": args.src_b.resolve()}
    results = {
        side: {"meta": {"src": str(src), "seed": args.seed}, "workloads": {}}
        for side, src in sides.items()
    }
    for name in args.workload or names:
        reps: dict[str, list[dict]] = {"A": [], "B": []}
        for pair in range(args.pairs):
            payload = dict(
                workload=name, seed=args.seed, scale=args.scale, mode="timed",
                flip=pair // 2 % 2 == 1,
            )
            for side in ("A", "B") if pair % 2 == 0 else ("B", "A"):
                reps[side].append(spawn(sides[side], payload))
        for side in sides:
            results[side]["workloads"][name] = {"end_to_end": fold(reps[side])}
        for spec in contract["end_to_end"]:
            pairs = [
                (a["metrics"][spec["name"]], b["metrics"][spec["name"]])
                for a, b in zip(reps["A"], reps["B"])
                if spec["name"] in a["metrics"] and spec["name"] in b["metrics"]
            ]
            if pairs:
                print(f"{name:22} {spec['name']:28} {paired_call(spec['better'], pairs)}")
    OUT.mkdir(exist_ok=True)
    for side, result in results.items():
        with open(OUT / f"pair-{side}.json", "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
    lines, code = compare(results["A"], results["B"], contract)
    print("\n".join(lines))
    return code


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        return cmd_compare(argv[1:])
    if argv and argv[0] == "pair":
        return cmd_pair(argv[1:])
    return cmd_run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
