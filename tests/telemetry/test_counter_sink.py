"""``CounterSink`` label rendering, pinned without any engine.

The sink tallies per-flit events on hashable keys (``(node, event)``,
``(node, out_port)``, the ``InputVC``) and renders the string labels only
when read; this drives it with a hand-written event sequence and checks
the rendered groups and the four attribute views against literals.
"""

from types import SimpleNamespace

from repro.core.colors import WBColor
from repro.network.buffers import InputVC
from repro.telemetry.sinks import CounterSink
from repro.topology.base import LOCAL_PORT


def _ivc(node, port, vc=0, out_port=None):
    ivc = InputVC(node, port, vc, capacity=4, is_escape=True, ring_id="x0")
    ivc.out_port = out_port
    return ivc


def test_hand_written_sequence_renders_expected_labels():
    sink = CounterSink()
    a = _ivc(0, 1, out_port=2)  # node 0, forwards through port 2
    b = _ivc(3, LOCAL_PORT, vc=1, out_port=LOCAL_PORT)  # node 3, ejecting
    packet = SimpleNamespace(pid=7, dst=3)
    flit = SimpleNamespace(packet=packet, index=0)

    sink.packet_offered(0, packet, True, 0)
    sink.packet_offered(3, packet, False, 0)
    sink.packet_staged(0, packet, 1)
    # Interleaved occupancy on two VCs: a peaks at 2, b at 1.
    sink.buffer_occupancy(a, +1)
    sink.buffer_occupancy(b, +1)
    sink.buffer_occupancy(a, +1)
    sink.buffer_occupancy(b, -1)
    sink.buffer_occupancy(a, -1)
    sink.buffer_occupancy(a, +1)
    sink.buffer_occupancy(a, -1)
    sink.buffer_occupancy(a, -1)
    sink.flit_delivered(a, flit, 2)
    sink.flit_delivered(b, flit, 2)
    sink.va_grant(0, a, packet, 2, 0, True, 1, 3)
    sink.va_grant(3, b, packet, LOCAL_PORT, 0, False, 0, 3)
    sink.credit_stall(0, a, 4)
    sink.packet_injected(0, packet, 5)
    sink.flit_sent(0, a, flit, 5)  # non-LOCAL: counts on link n0>p2
    sink.flit_sent(0, a, flit, 6)
    sink.flit_sent(3, b, flit, 7)  # LOCAL: an ejection, not a link
    sink.packet_ejected(packet, 8)
    sink.wb_color(a, WBColor.WHITE, WBColor.BLACK, "mark")
    sink.ci_update(0, "x0", 1, "mark")
    sink.fc_event("wbfc_unmark", "x0")

    router = {
        "0": {
            "packets_offered": 1,
            "packets_staged": 1,
            "flits_received": 1,
            "va_grants": 1,
            "va_escape_grants": 1,
            "credit_stalls": 1,
            "packets_injected": 1,
            "flits_sent": 2,
        },
        "3": {
            "packets_dropped": 1,
            "flits_received": 1,
            "va_grants": 1,
            "flits_sent": 1,
            "packets_ejected": 1,
        },
    }
    link = {"n0>p2": 2}
    vc_writes = {"n0/p1/v0": 3, "n3/p0/v1": 1}
    vc_peak = {"n0/p1/v0": 2, "n3/p0/v1": 1}
    assert sink.router == router
    assert sink.link == link
    assert sink.vc_writes == vc_writes
    assert sink.vc_peak == vc_peak
    assert sink.as_dict() == {
        "router": router,
        "link": link,
        "vc_writes": vc_writes,
        "vc_peak": vc_peak,
        "wb": {"x0:mark": 1},
        "ci": {"x0:mark": 1},
        "fc": {"wbfc_unmark": 1},
    }


def test_vc_first_seen_draining_reports_no_write_and_no_peak():
    # A sink attached mid-run may first see a buffer on its way down; a
    # VC never written while attached appears in neither group.
    sink = CounterSink()
    ivc = _ivc(1, 2)
    sink.buffer_occupancy(ivc, -1)
    assert sink.vc_writes == {} and sink.vc_peak == {}
    sink.buffer_occupancy(ivc, +1)  # back to the attach-time level
    assert sink.vc_writes == {"n1/p2/v0": 1} and sink.vc_peak == {}
