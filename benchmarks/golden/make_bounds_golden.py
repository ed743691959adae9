"""Regenerate the cached golden summaries behind CI's bounds-smoke job.

Runs one fresh sub-saturation measurement per design (the five paper
designs plus the CBS extension), validates it against the analytic
saturation bound, and caches the measured packet count and accepted
throughput next to the bound values and the exact
``python -m repro.analysis bounds`` CLI arguments that reproduce them.
CI then recomputes the bounds only — no simulation — and fails if any
cached rate is no longer below the saturation bound or any cached
throughput exceeds it (i.e. if a change tightened the bound past reality
or broke the channel-load math).

Usage::

    PYTHONPATH=src python benchmarks/golden/make_bounds_golden.py
"""

from __future__ import annotations

import json
import os

from repro.analysis.bounds import validate_bounds
from repro.experiments.designs import PAPER_DESIGNS
from repro.network.switching import Switching
from repro.sim.config import SimulationConfig
from repro.sim.spec import ScenarioSpec

OUT = os.path.join(os.path.dirname(__file__), "bounds_golden.json")

TOPOLOGY = "torus:4x4"
PATTERN = "UR"
RATE = 0.1
WARMUP, MEASURE, SEED = 1_000, 4_000, 1

#: design -> (config, extra CLI args reproducing it)
DESIGN_CONFIGS: dict[str, tuple[SimulationConfig, list[str]]] = {
    **{name: (SimulationConfig(), []) for name in PAPER_DESIGNS},
    "CBS-1VC": (
        SimulationConfig(buffer_depth=8, switching=Switching.WORMHOLE_NONATOMIC),
        ["--switching", "nonatomic", "--buffer-depth", "8"],
    ),
}


def main() -> None:
    entries = []
    for design, (config, extra_args) in DESIGN_CONFIGS.items():
        spec = ScenarioSpec(
            design=design,
            topology=TOPOLOGY,
            pattern=PATTERN,
            injection_rate=RATE,
            config=config,
            warmup=WARMUP,
            measure=MEASURE,
            seed=SEED,
        )
        validation = validate_bounds(spec)
        assert validation.ok, validation.render()
        assert validation.below_saturation, validation.render()
        print(validation.render())
        report = validation.report
        summary = validation.summary
        entries.append(
            {
                "design": design,
                "cli_args": ["--topology", TOPOLOGY, "--pattern", PATTERN]
                + extra_args,
                "injection_rate": RATE,
                "warmup": WARMUP,
                "measure": MEASURE,
                "seed": SEED,
                "measured": {
                    "packets": summary.packets,
                    "throughput": summary.throughput,
                },
                "bounds_at_generation": {
                    "saturation_injection_rate": report.saturation_injection_rate,
                    "saturation_throughput": report.saturation_throughput,
                },
            }
        )
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(
            {"note": "regenerate with make_bounds_golden.py", "entries": entries},
            fh,
            indent=2,
        )
        fh.write("\n")
    print(f"\nwrote {len(entries)} golden entries to {OUT}")


if __name__ == "__main__":
    main()
