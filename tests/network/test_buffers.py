"""InputVC buffers and OutputVC credit mirrors."""

import pytest

from repro.core.colors import WBColor
from repro.network.buffers import InputVC, OutputVC, VCState
from repro.network.flit import Packet


def make_vc(capacity=3) -> InputVC:
    return InputVC(0, 1, 0, capacity, is_escape=True, ring_id="r")


def test_initial_state_is_idle_white_worm_bubble():
    vc = make_vc()
    assert vc.state is VCState.IDLE
    assert vc.color is WBColor.WHITE
    assert vc.is_worm_bubble
    assert vc.free_slots == 3


def test_color_off_lane_is_white_and_rejects_tokens():
    """Colors live on the ring lane; a buffer on no lane carries no token:
    it reads WHITE, accepts a (no-op) WHITE write, and refuses anything
    else instead of dropping it silently."""
    vc = make_vc()
    assert vc.color_lane is None
    vc.color = WBColor.WHITE
    assert vc.color is WBColor.WHITE
    for token in (WBColor.GRAY, WBColor.BLACK):
        with pytest.raises(ValueError, match="no token lane"):
            vc.color = token
    assert vc.color is WBColor.WHITE


def test_push_pop_fifo():
    vc = make_vc()
    p = Packet(pid=1, src=0, dst=1, length=3)
    flits = p.make_flits()
    for f in flits:
        vc.push(f)
    assert len(vc) == 3
    assert vc.head_flit() is flits[0]
    assert [vc.pop() for _ in range(3)] == flits
    assert vc.is_empty


def test_overflow_raises():
    vc = make_vc(capacity=1)
    p = Packet(pid=1, src=0, dst=1, length=2)
    f0, f1 = p.make_flits()
    vc.push(f0)
    with pytest.raises(OverflowError):
        vc.push(f1)


def test_pop_empty_raises():
    with pytest.raises(IndexError):
        make_vc().pop()


def test_owned_buffer_is_not_a_worm_bubble():
    vc = make_vc()
    vc.owner = Packet(pid=1, src=0, dst=1, length=1)
    assert vc.is_empty
    assert not vc.is_worm_bubble


def test_release_resets_state():
    vc = make_vc()
    p = Packet(pid=1, src=0, dst=1, length=1)
    vc.owner = p
    vc.state = VCState.ACTIVE
    vc.out_port, vc.out_vc = 2, 0
    vc.release()
    assert vc.state is VCState.IDLE
    assert vc.owner is None and vc.out_port is None
    assert vc.is_worm_bubble


def test_release_with_flits_raises():
    vc = make_vc()
    vc.push(Packet(pid=1, src=0, dst=1, length=1).make_flits()[0])
    with pytest.raises(RuntimeError):
        vc.release()


class TestOutputVC:
    def test_credits_track_capacity(self):
        ivc = make_vc(capacity=3)
        ovc = OutputVC(ivc)
        assert ovc.credits == 3
        assert ovc.is_free_for_allocation
        ovc.take_credit()
        assert ovc.credits == 2
        assert not ovc.is_free_for_allocation  # not known-empty anymore

    def test_credit_underflow_raises(self):
        ovc = OutputVC(make_vc(capacity=1))
        ovc.take_credit()
        with pytest.raises(RuntimeError):
            ovc.take_credit()

    def test_credit_overflow_raises(self):
        ovc = OutputVC(make_vc(capacity=1))
        with pytest.raises(RuntimeError):
            ovc.return_credit(release=False)

    def test_release_clears_allocation(self):
        ivc = make_vc()
        ovc = OutputVC(ivc)
        p = Packet(pid=1, src=0, dst=1, length=1)
        ovc.allocated_to = p
        ovc.take_credit()
        assert not ovc.is_free_for_allocation
        ovc.return_credit(release=True)
        assert ovc.allocated_to is None
        assert ovc.is_free_for_allocation
