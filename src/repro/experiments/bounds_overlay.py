"""Analytic bounds overlaid on fig10-style latency-load curves.

For each (pattern, design) curve of the Figure 10 protocol this harness
computes the static :class:`~repro.analysis.bounds.BoundsReport` once,
sweeps the simulated curve as usual, and then replays every measured
point through :func:`~repro.analysis.bounds.validate_bounds` — the
measurements are passed in directly, so the cross-check costs no extra
simulation.  The rendering prints, per load point, the simulated
accepted throughput next to the analytic ceiling and the verdict, plus
the analytic saturation rate as the curve's vertical asymptote.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.bounds import BoundsReport, BoundsValidation, compute_bounds, validate_bounds
from ..metrics.sweep import SweepResult, sweep_curves
from ..sim.config import SimulationConfig
from .designs import PAPER_DESIGNS
from .runner import Scale, current_scale, format_table

__all__ = ["BoundsOverlayStudy", "bounds_overlay_study", "render_bounds_overlay"]


@dataclass
class BoundsOverlayStudy:
    """Simulated curves plus their analytic ceilings, one torus size."""

    radix: int
    curves: dict[tuple[str, str], SweepResult] = field(default_factory=dict)
    reports: dict[tuple[str, str], BoundsReport] = field(default_factory=dict)
    #: Per-point validation verdicts, aligned with each curve's points.
    validations: dict[tuple[str, str], list[BoundsValidation]] = field(
        default_factory=dict
    )

    def violations(self) -> list[tuple[str, str, float, str]]:
        """Every violated bound as (pattern, design, rate, message)."""
        out = []
        for (pattern, design), vals in self.validations.items():
            for v in vals:
                for msg in v.violations:
                    out.append((pattern, design, v.injection_rate, msg))
        return out


def bounds_overlay_study(
    radix: int = 4,
    *,
    patterns: tuple[str, ...] = ("UR", "TP"),
    designs: tuple[str, ...] = PAPER_DESIGNS,
    scale: Scale | None = None,
    config: SimulationConfig | None = None,
    seed: int = 1,
    workers: int | None = None,
) -> BoundsOverlayStudy:
    """Sweep fig10-style curves and cross-check each point against bounds.

    The analytic pass reads only the curve's design, topology, pattern,
    config and lengths, so each curve's first spec stands for it; the
    supported curves' points then run as one batch.
    """
    from .fig10 import latency_load_specs

    grid = latency_load_specs(
        radix, patterns, designs, scale or current_scale(), config, seed
    )
    study = BoundsOverlayStudy(radix=radix)
    for key, specs in grid.items():
        study.reports[key] = compute_bounds(specs[0])
    supported = {key: grid[key] for key, r in study.reports.items() if r.supported}
    study.curves = sweep_curves(supported, workers=workers)
    for key, curve in study.curves.items():
        study.validations[key] = [
            validate_bounds(spec, summary=point.summary)
            for spec, point in zip(grid[key], curve.points)
        ]
    return study


def render_bounds_overlay(study: BoundsOverlayStudy) -> str:
    """Curves with the analytic ceilings and per-point verdicts."""
    blocks = []
    for (pattern, design), report in study.reports.items():
        title = f"{study.radix}x{study.radix} {pattern} {design}"
        if not report.supported:
            assert report.unsupported is not None
            blocks.append(
                f"{title}: no analytic bound — {report.unsupported.reason}"
            )
            continue
        curve = study.curves[(pattern, design)]
        vals = study.validations[(pattern, design)]
        rows = []
        for point, v in zip(curve.points, vals):
            rows.append(
                [
                    f"{point.injection_rate:.3f}",
                    f"{point.summary.throughput:.3f}",
                    f"{report.saturation_throughput:.3f}",
                    ("ok" if v.ok else "VIOLATION")
                    + ("" if v.below_saturation else " (>= sat bound)"),
                ]
            )
        blocks.append(
            format_table(
                ["rate", "thr", "thr_bound", "verdict"],
                rows,
                f"{title} — analytic saturation rate "
                f"{report.saturation_injection_rate:.3f} "
                f"(bottleneck: {report.bottleneck})",
            )
        )
    bad = study.violations()
    if bad:
        lines = [
            f"  {pattern} {design} @ {rate:.3f}: {msg}"
            for pattern, design, rate, msg in bad
        ]
        blocks.append("BOUND VIOLATIONS:\n" + "\n".join(lines))
    else:
        blocks.append(
            "all measured points are consistent with the analytic bounds"
        )
    return "\n\n".join(blocks)
