"""The Figure-12 measurement helper, end to end at tiny scale."""

from functools import partial

from repro.metrics.injection import injection_delay_profile
from repro.metrics.sweep import SweepResult
from repro.topology.torus import Torus


def test_profile_structure_and_monotonicity():
    report = injection_delay_profile(
        "WBFC-1VC",
        partial(Torus, (4, 4)),  # picklable: sweeps fan out to workers
        "UR",
        fractions=(0.1, 0.9),
        warmup=300,
        measure=1_200,
        steps=4,
    )
    assert report.design == "WBFC-1VC"
    assert 0 < report.saturation < 1
    assert set(report.delays) == {0.1, 0.9}
    assert all(d >= 0 for d in report.delays.values())
    # heavier relative load cannot reduce the injection wait
    assert report.delays[0.9] >= report.delays[0.1] * 0.5


def test_empty_sweep_edges():
    curve = SweepResult(design="x", pattern="UR")
    assert curve.zero_load_latency == float("inf")
    assert curve.saturation() == 0.0
