"""Wedge diagnostics on a real deadlock: every blocked head explained.

Drives the canonical negative control (unrestricted flow control on an
8-node torus ring) into its wedge, then asserts ``blocked_heads`` names
the blocking escape VC for every waiting head.
"""

import pytest

from repro.experiments.designs import build_network
from repro.sim.deadlock import Watchdog
from repro.sim.diagnostics import blocked_heads, format_blocked_heads
from repro.sim.engine import Simulator
from repro.topology.torus import Torus
from repro.traffic.generator import SyntheticTraffic
from repro.traffic.lengths import FixedLength
from repro.traffic.patterns import make_pattern


@pytest.fixture(scope="module")
def wedged_network():
    net = build_network("UNRESTRICTED-1VC", Torus((8,)))
    wl = SyntheticTraffic(
        make_pattern("UR", net.topology), 0.5, lengths=FixedLength(5), seed=5
    )
    watchdog = Watchdog(net, deadlock_window=500, raise_on_deadlock=False)
    Simulator(net, wl, watchdog=watchdog).run(10_000)
    assert watchdog.deadlocked, "negative control failed to wedge"
    return net


class TestBlockedHeads:
    def test_wedge_produces_blocked_records(self, wedged_network):
        records = blocked_heads(wedged_network)
        assert records, "a deadlocked network must have waiting heads"
        for r in records:
            assert r["reasons"], f"head {r['pid']} has no denial reason"

    def test_reasons_name_the_blocking_escape_vc(self, wedged_network):
        """Each record explains the escape VC that denied the head —
        either not admitted (atomic allocation) or vetoed by flow control."""
        records = blocked_heads(wedged_network)
        for r in records:
            esc = [reason for reason in r["reasons"] if reason.startswith("esc vc0")]
            assert esc, f"no escape-VC reason in {r['reasons']}"
            assert any(
                "not admitted" in reason or "flow control denies" in reason
                for reason in esc
            )

    def test_records_identify_packet_and_location(self, wedged_network):
        for r in blocked_heads(wedged_network):
            assert r["buffer"].startswith(f"n{r['node']}/")
            assert r["dst"] != r["node"] or r["escape_port"] == 0
            assert r["len"] == 5

    def test_format_is_human_readable(self, wedged_network):
        text = format_blocked_heads(wedged_network)
        assert "blocked heads" in text
        assert "esc vc0" in text

    def test_format_respects_limit(self, wedged_network):
        records = blocked_heads(wedged_network)
        text = format_blocked_heads(wedged_network, limit=1)
        # Header plus exactly one record line.
        assert len(text.splitlines()) == min(1, len(records)) + 1


class TestInspectionIsPure:
    """Looking at a network must not change it: ``blocked_heads`` reads
    the escape classes through the scheme's pure view, never through the
    router's ``escape_vc_choices`` (Dateline flips a balance bit there)."""

    @staticmethod
    def _run(design, inspect_at=None):
        import dataclasses

        from repro.sim.spec import ScenarioSpec, prepare

        from .test_backend import normalize

        prepared = prepare(
            ScenarioSpec(
                design=design, topology="torus:4x4", injection_rate=0.45, seed=3
            )
        )
        prepared.collector.begin(0)
        prepared.simulator.run(700)
        if inspect_at is not None:
            fc = prepared.network.flow_control
            before = normalize(fc.snapshot_state())
            inspect_at.extend(blocked_heads(prepared.network))
            assert normalize(fc.snapshot_state()) == before
        prepared.simulator.run(800)
        prepared.collector.end(prepared.simulator.cycle)
        return (
            dataclasses.asdict(prepared.collector.summary()),
            prepared.network.activity,
        )

    @pytest.mark.parametrize("design", ["WBFC-1VC", "WBFC-2VC", "DL-2VC"])
    def test_inspected_run_equals_uninspected(self, design):
        records = []
        inspected = self._run(design, records)
        assert records, "no head was blocked at the inspection point"
        assert inspected == self._run(design)
