"""Regenerate the paper's figures from the command line.

Usage::

    python -m repro.experiments                      # everything, CI scale
    python -m repro.experiments --only fig10 fig14   # a subset
    python -m repro.experiments --out results/       # also write report.md + CSVs
    REPRO_FULL=1 python -m repro.experiments         # paper-scale windows
    REPRO_WORKERS=8 python -m repro.experiments      # sweep-point process fan-out

Each figure's harness lives in ``repro.experiments.figNN``; this driver
just sequences them and collects their text renderings into one report.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..metrics.report import ExperimentReport
from .runner import current_scale


def _run_table1(report: ExperimentReport, scale) -> None:
    from .table1 import render_table1, table1_rows

    report.add(
        "table1",
        "Table 1: simulation parameters",
        render_table1(),
        csv_header=["parameter", "value"],
        csv_rows=table1_rows(),
    )


def _run_fig01(report: ExperimentReport, scale) -> None:
    from .fig01 import figure1_rows, render_figure1

    rows = figure1_rows()
    report.add(
        "fig01",
        "Figure 1: router area & power vs VC count",
        render_figure1(),
        csv_header=[
            "vcs",
            "buffer_um2",
            "xbar_um2",
            "ctrl_um2",
            "buffer_static_w",
            "ctrl_static_w",
            "xbar_static_w",
            "dynamic_w",
        ],
        csv_rows=[
            [
                r.num_vcs,
                r.buffer_area_um2,
                r.xbar_area_um2,
                r.ctrl_area_um2,
                r.buffer_static_w,
                r.ctrl_static_w,
                r.xbar_static_w,
                r.dynamic_w,
            ]
            for r in rows
        ],
    )


def _run_fig10(report: ExperimentReport, scale) -> None:
    from .fig10 import latency_load_study, render_study

    study = latency_load_study(4, scale=scale)
    report.add(
        "fig10",
        "Figure 10: latency vs load, 4x4 torus",
        render_study(study),
        csv_header=["pattern", "design", "rate", "avg_latency", "throughput"],
        csv_rows=[
            [pattern, design, p.injection_rate, p.summary.avg_latency, p.summary.throughput]
            for (pattern, design), curve in study.curves.items()
            for p in curve.points
        ],
    )


def _run_fig11(report: ExperimentReport, scale) -> None:
    from .fig10 import latency_load_study, render_study

    patterns = ("UR", "TP") if scale.name == "ci" else ("UR", "TP", "BC", "TO")
    study = latency_load_study(8, patterns=patterns, scale=scale)
    report.add("fig11", "Figure 11: latency vs load, 8x8 torus", render_study(study))


def _run_fig12(report: ExperimentReport, scale) -> None:
    from .fig12 import injection_delay_study, render_injection_delay

    radices = (4,) if scale.name == "ci" else (4, 8)
    results = injection_delay_study(radices, scale=scale)
    report.add("fig12", "Figure 12: injection delay", render_injection_delay(results))


def _run_fig13(report: ExperimentReport, scale) -> None:
    from .fig13 import render_parsec, run_parsec
    from .fig15 import render_figure15

    benches = (
        ("dedup", "canneal", "blackscholes", "swaptions")
        if scale.name == "ci"
        else None
    )
    result = run_parsec(benches, scale=scale)
    report.add("fig13", "Figure 13: PARSEC execution time", render_parsec(result))
    report.add("fig15", "Figure 15: router energy over PARSEC", render_figure15(result))


def _run_fig14(report: ExperimentReport, scale) -> None:
    from .fig14 import render_figure14

    report.add("fig14", "Figure 14: router area breakdown", render_figure14())


def _run_fig16(report: ExperimentReport, scale) -> None:
    from .fig16 import buffer_size_study, render_figure16

    curves = buffer_size_study(scale=scale)
    report.add("fig16", "Figure 16: impact of buffer size", render_figure16(curves))


def _run_sensitivity(report: ExperimentReport, scale) -> None:
    from .sensitivity import (
        reclaim_patience_study,
        render_reclaim_patience,
        render_scalability,
        scalability_study,
    )

    radices = (4, 8) if scale.name == "ci" else (4, 6, 8)
    report.add(
        "scalability",
        "Scalability: WBFC vs Dateline across network sizes",
        render_scalability(scalability_study(radices, scale=scale)),
    )
    report.add(
        "reclaim",
        "Reclaim-patience sensitivity",
        render_reclaim_patience(reclaim_patience_study(scale=scale)),
    )


def _run_bounds(report: ExperimentReport, scale) -> None:
    from .bounds_overlay import bounds_overlay_study, render_bounds_overlay

    study = bounds_overlay_study(4, scale=scale)
    report.add(
        "bounds",
        "Analytic bounds vs simulated latency-load curves, 4x4 torus",
        render_bounds_overlay(study),
        csv_header=[
            "pattern",
            "design",
            "rate",
            "throughput",
            "throughput_bound",
            "ok",
        ],
        csv_rows=[
            [
                pattern,
                design,
                v.injection_rate,
                v.summary.throughput,
                study.reports[(pattern, design)].saturation_throughput,
                v.ok,
            ]
            for (pattern, design), vals in study.validations.items()
            for v in vals
        ],
    )


def _run_ext(report: ExperimentReport, scale) -> None:
    from .extensions import render_extensions, run_extensions

    report.add(
        "extensions",
        "Section 6: applications and extensions",
        render_extensions(run_extensions(scale=scale)),
    )


RUNNERS = {
    "table1": _run_table1,
    "fig01": _run_fig01,
    "fig10": _run_fig10,
    "fig11": _run_fig11,
    "fig12": _run_fig12,
    "fig13": _run_fig13,  # also produces fig15
    "fig14": _run_fig14,
    "fig16": _run_fig16,
    "bounds": _run_bounds,
    "extensions": _run_ext,
    "sensitivity": _run_sensitivity,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        choices=sorted(RUNNERS),
        help="run a subset of experiments (default: all)",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        help="also write report.md and per-figure CSVs to DIR",
    )
    args = parser.parse_args(argv)

    scale = current_scale()
    keys = args.only or list(RUNNERS)
    report = ExperimentReport()
    for key in keys:
        started = time.time()
        print(f"[{key}] running at {scale.name} scale ...", flush=True)
        RUNNERS[key](report, scale)
        print(f"[{key}] done in {time.time() - started:.1f}s", flush=True)
    print()
    for section in report.sections:
        print(section.body)
        print()
    if args.out:
        path = report.write(args.out)
        print(f"report written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
