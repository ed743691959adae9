"""Tests of the perf ledger itself, at quick sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = run.load_contract()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def traced(workload: str, scale: float, tmp: Path):
    ops, trace = child.Ops(), child.Trace()
    result = child.traced_pass(
        dict(workload=workload, seed=1, scale=scale), ops, trace, tmp
    )
    return result["metrics"], result, ops, trace


@pytest.mark.parametrize("workload", list(child.ENGINE))
def test_driven_cycle_loop_is_bit_identical(workload, tmp_path):
    """Every check of the traced pass holds: the loop driven from the
    benchmark, skipping off, each array backend, restore and handoff, and
    the store round trip all reproduce ``Simulator.run``'s statistics."""
    m, result, ops, trace = traced(workload, 0.1, tmp_path)
    assert ops.reasons == [] and ops.failed == 0
    wl = child.ENGINE[workload]
    cycles = int(wl.warmup * 0.1) + int(wl.measure * 0.1)
    assert m["sim.engine.cycles_ticked"] + m["sim.engine.cycles_skipped"] == cycles
    assert m["trace.span_coverage"] > 0.9
    phases = [row for row in trace.rows if row["name"] in child.PHASES]
    assert len(phases) == len(child.PHASES)
    assert sum(row["busy_s"] for row in phases) == pytest.approx(
        sum(m[name] for name in child.PHASES)
    )


def test_skipped_share_separates_sparse_from_busy(tmp_path):
    sparse, *_ = traced("torus8_wbfc1_sparse", 0.1, tmp_path / "sparse")
    busy, *_ = traced("torus8_wbfc1_busy", 0.1, tmp_path / "busy")
    assert sparse["sim.engine.cycles_skipped"] >= 0.5 * 15_000
    assert busy["sim.engine.cycles_skipped"] <= 0.01 * 300


def test_probed_workload_records_its_fallback(tmp_path):
    m, result, ops, _ = traced("torus8_wbfc1_probed", 0.1, tmp_path)
    assert m["sim.spec.fallbacks"] == 1
    assert "probe subscribers attached" in result["witness"][0]
    assert m["telemetry.probe_overhead_frac"] != 0


def test_every_declared_layer_metric_is_measured_somewhere(tmp_path):
    measured = set()
    for workload in ("torus8_wbfc1_busy", "torus8_wbfc1_probed", "fig10_ur_cold"):
        m, _, ops, _ = traced(workload, 0.04, tmp_path / workload)
        assert ops.reasons == []
        measured |= set(m)
    declared = {spec["name"] for spec in CONTRACT["per_layer"]}
    assert measured == declared


def test_warm_figure_serves_every_point_from_the_store(tmp_path):
    m, _, ops, _ = traced("fig10_ur_warm", 0.04, tmp_path)
    assert ops.reasons == []
    assert m["sim.spec.simulated_points"] == 0
    assert m["sim.spec.cache_hits"] == 35
    assert m["metrics.parallel.pools_per_figure"] == 5


def test_contract_file_is_well_formed():
    names = [w["name"] for w in CONTRACT["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        names += [spec["name"] for spec in CONTRACT[kind]]
        for spec in CONTRACT[kind]:
            assert UNIT.fullmatch(spec["unit"]), spec
            assert spec["better"] in ("lower", "higher")
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert {w["name"] for w in CONTRACT["workloads"]} == set(child.ENGINE) | set(child.FIGURE)
    bounds = {spec["name"]: spec["bound"] for spec in CONTRACT["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("workload", ["torus8_wbfc1_sparse", "fig10_ur_warm"])
@pytest.mark.parametrize("trace", [0, 1])
def test_contract_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.04"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert set(line["metrics"]) == {spec["name"] for spec in CONTRACT[kind]}
    for spec in CONTRACT[kind]:
        metric = line["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0


def test_without_the_source_tree_the_run_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ledger = tmp_path / "benchmarks" / "ledger"
    ledger.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        shutil.copy(path, ledger)
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "fig10_ur_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- compare ------------------------------------------------------------------------


def result(speed, *, failed=0, grants=100, metric="cycles_per_s.object"):
    return {
        "workloads": {
            "w": {
                "end_to_end": {
                    "samples": {metric: list(speed)}, "attempted": 10, "failed": failed,
                },
                "per_layer": {"values": {"network.va_grants": grants}},
            }
        }
    }


def words(lines):
    return [line.split()[2] for line in lines if "absent" not in line]


BOUND = {spec["name"]: spec["bound"] for spec in CONTRACT["end_to_end"]}
#: Just past the speed bound, as a fraction of the other side's reading.
PAST = 1.0 - BOUND["cycles_per_s.object"] - 0.05


def test_compare_beyond_the_bound_is_worse():
    fast, slow = [100, 101, 102], [100 * PAST, 101 * PAST, 102 * PAST]
    lines, code = run.compare(result(fast), result(slow), CONTRACT)
    assert words(lines) == ["worse"] and code == 1
    lines, code = run.compare(result(slow), result(fast), CONTRACT)
    assert words(lines) == ["better"] and code == 0


def test_compare_lower_is_better_for_times():
    late = 1.0 + BOUND["figure_s"] + 0.05
    lines, code = run.compare(
        result([1.0, 1.01], metric="figure_s"),
        result([late, late + 0.01], metric="figure_s"),
        CONTRACT,
    )
    assert words(lines) == ["worse"] and code == 1


def test_compare_within_the_bound_is_same():
    lines, code = run.compare(
        result([100, 101, 102]), result([97, 98, 99]), CONTRACT
    )
    assert words(lines) == ["same"] and code == 0


def test_compare_wide_overlapping_spread_is_unresolved():
    lines, code = run.compare(
        result([50, 100, 150, 101]), result([40, 100 * PAST, 120, 100 * PAST - 1]),
        CONTRACT,
    )
    assert words(lines) == ["unresolved"] and code == 0


def test_compare_wide_spread_resolves_when_every_run_beats_every_run():
    lines, code = run.compare(
        result([100, 150, 200, 151]), result([30, 50, 70, 51]), CONTRACT
    )
    assert words(lines) == ["worse"] and code == 1


def test_compare_flags_a_changed_count_and_a_higher_failed_share():
    lines, code = run.compare(result([100, 101]), result([100, 101], grants=99), CONTRACT)
    assert any("simulation changed 100 -> 99" in line for line in lines) and code == 0
    lines, code = run.compare(result([100, 101]), result([100, 101], failed=1), CONTRACT)
    assert any("ops_failed share rose" in line for line in lines) and code == 1
