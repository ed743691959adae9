"""Runtime invariant sanitizer.

An opt-in per-cycle auditor that cross-checks the simulator's incremental
state against the conservation laws it is supposed to maintain, so state
corruption is reported within one cycle of its introduction instead of
surfacing thousands of cycles later as a mysterious deadlock or a skewed
curve.  Enable it per run with ``SimulationConfig(sanitize=True)`` or
globally with ``REPRO_SANITIZE=1``; when off, nothing is registered on the
engine and the simulation kernel runs untouched (zero cost).

Checked **every cycle** (cheap, single pass over live state):

* WBFC token conservation per ring — exactly one gray worm-bubble, black
  count equal to ``(ML - 1) + sum(CI) + sum(CH)`` (via
  :func:`repro.core.invariants.ring_ledgers`).
* Credit conservation per link VC — upstream credits, buffered flits,
  in-flight flits, and in-flight credits must sum to the buffer capacity.
* Atomic-allocation exclusivity — a buffer holds flits of one packet
  only, that packet is its owner, and the upstream allocation mirror
  agrees with the downstream owner.

Checked on a **sampled deep pass** every ``sanitize_interval`` cycles
(exhaustive recounts, O(buffers)):

* O(1) occupancy counters vs :meth:`Network.recount_occupancy`.
* Router active stage sets vs :meth:`Router.recount_stage_sets`, and the
  network-level phase router sets vs the per-router sets.
* The pending-NIC set vs actual NIC source queues.
* WBFC auxiliary counters — CI non-negativity, the ``_CounterDict``
  nonzero index, and each ring lane's occupied-buffer count and
  worm-bubble mask.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from ..core.invariants import InvariantViolation, check_invariants, ring_ledgers
from ..core.wbfc import WormBubbleFlowControl
from ..network.switching import Switching

if TYPE_CHECKING:  # pragma: no cover
    from ..network.network import Network

__all__ = ["InvariantSanitizer", "SanitizerError", "sanitize_enabled"]


class SanitizerError(AssertionError):
    """An engine invariant was violated; carries the offending cycle."""

    def __init__(self, cycle: int, problems: list[str]):
        self.cycle = cycle
        self.problems = problems
        detail = "\n  ".join(problems)
        super().__init__(
            f"sanitizer: {len(problems)} invariant violation(s) at "
            f"cycle {cycle}:\n  {detail}"
        )


def sanitize_enabled(config) -> bool:
    """Is sanitizing requested, by config flag or ``REPRO_SANITIZE``?"""
    if getattr(config, "sanitize", False):
        return True
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


class InvariantSanitizer:
    """Per-cycle invariant auditor for one network.

    Register :meth:`on_cycle` as an engine cycle listener (the
    :class:`~repro.sim.engine.Simulator` does this automatically when
    sanitizing is enabled).  ``interval`` controls how often the
    exhaustive deep checks run; the conservation laws run every cycle.
    """

    def __init__(self, network: "Network", *, interval: int | None = None):
        self.network = network
        if interval is None:
            interval = getattr(network.config, "sanitize_interval", 64)
            env = os.environ.get("REPRO_SANITIZE_INTERVAL")
            if env:
                interval = int(env)
        if interval < 1:
            raise ValueError("sanitize_interval must be >= 1")
        self.interval = interval
        self.checks_run = 0
        self.deep_checks_run = 0
        self._is_wbfc = isinstance(network.flow_control, WormBubbleFlowControl)
        self._atomic = network.config.switching is Switching.WORMHOLE_ATOMIC

    # -- engine hook ----------------------------------------------------------

    def on_cycle(self, cycle: int) -> None:
        """Audit the cycle boundary; raise :class:`SanitizerError` on failure."""
        problems: list[str] = []
        if self._is_wbfc:
            self._check_tokens(problems)
        self._check_credits(problems)
        if self._atomic:
            self._check_exclusivity(problems)
        self.checks_run += 1
        if cycle % self.interval == 0:
            self._deep_check(problems)
            self.deep_checks_run += 1
        if problems:
            raise SanitizerError(cycle, problems)

    #: Registered directly as a cycle listener by the engine.
    __call__ = on_cycle

    # -- event-horizon wake contract (see API.md) -------------------------------

    def next_wake(self, cycle: int) -> int:
        """Deep checks land on interval multiples; demand a tick there."""
        rem = cycle % self.interval
        return cycle if rem == 0 else cycle + (self.interval - rem)

    def skip_span(self, start: int, end: int) -> None:
        """Account for the cheap checks of skipped cycles ``[start, end)``.

        The engine only skips spans where every layer it audits is frozen
        (quiescent network, no events in flight), so each skipped cycle's
        conservation checks would evaluate the same state the last ticked
        cycle already passed; re-running them would be pure repetition.
        ``next_wake`` keeps deep-check cycles ticked, so none fall inside.
        """
        self.checks_run += end - start

    # -- every-cycle checks ----------------------------------------------------

    def _check_tokens(self, problems: list[str]) -> None:
        """WBFC color conservation: one gray per ring, black algebra, CI/CH."""
        try:
            check_invariants(self.network, ring_ledgers(self.network))
        except InvariantViolation as exc:
            problems.append(f"token conservation: {exc}")

    def _check_credits(self, problems: list[str]) -> None:
        """Per link VC: credits + buffered + in-flight events == capacity."""
        net = self.network
        arrivals, credits = net.inflight_snapshot()
        for router in net.routers:
            for port, outs in enumerate(router.outputs):
                if outs is None:
                    continue
                for ovc in outs:
                    down = ovc.downstream
                    total = (
                        ovc.credits
                        + len(down.flits)
                        + arrivals.get(down, 0)
                        + credits.get(ovc, 0)
                    )
                    if total != down.capacity:
                        problems.append(
                            f"credit conservation at n{router.node}:p{port} -> "
                            f"{down.label()}: credits {ovc.credits} + buffered "
                            f"{len(down.flits)} + inflight flits "
                            f"{arrivals.get(down, 0)} + inflight credits "
                            f"{credits.get(ovc, 0)} != capacity {down.capacity}"
                        )

    def _check_exclusivity(self, problems: list[str]) -> None:
        """Atomic allocation: one packet per buffer, mirrors consistent."""
        for router in self.network.routers:
            for port_list in router.inputs:
                for ivc in port_list:
                    owners = {flit.packet.pid for flit in ivc.flits}
                    if len(owners) > 1:
                        problems.append(
                            f"{ivc.label()}: flits of packets "
                            f"{sorted(owners)} interleaved in one atomic buffer"
                        )
                    if ivc.flits and ivc._owner is not None and (
                        ivc.flits[0].packet is not ivc._owner
                    ):
                        problems.append(
                            f"{ivc.label()}: buffered packet "
                            f"{ivc.flits[0].packet.pid} is not the owner "
                            f"{ivc._owner.pid}"
                        )
            for port, outs in enumerate(router.outputs):
                if outs is None:
                    continue
                for ovc in outs:
                    down = ovc.downstream
                    if (
                        ovc.allocated_to is not None
                        and down._owner is not None
                        and ovc.allocated_to is not down._owner
                    ):
                        problems.append(
                            f"allocation mirror at n{router.node}:p{port} -> "
                            f"{down.label()}: upstream says packet "
                            f"{ovc.allocated_to.pid}, downstream owned by "
                            f"{down._owner.pid}"
                        )

    # -- sampled deep checks -----------------------------------------------------

    def _deep_check(self, problems: list[str]) -> None:
        net = self.network
        snap, truth = net.occupancy_snapshot(), net.recount_occupancy()
        if snap != truth:
            problems.append(
                f"occupancy counters drifted: incremental {snap} != "
                f"recount {truth}"
            )
        rc_set, va_set, sa_set = net.phase_routers
        for router in net.routers:
            routing, waiting, active = router.recount_stage_sets()
            for name, kept, true_set, phase in (
                ("routing", router._routing_vcs, routing, rc_set),
                ("waiting_va", router._waiting_va_vcs, waiting, va_set),
                ("active", router._active_vcs, active, sa_set),
            ):
                if kept != true_set:
                    stale = {ivc.label() for ivc in kept ^ true_set}
                    problems.append(
                        f"router {router.node} {name} stage set drifted: "
                        f"{sorted(stale)}"
                    )
                if bool(true_set) != (router.node in phase):
                    problems.append(
                        f"router {router.node}: {name} phase-set membership "
                        f"{router.node in phase} but stage has "
                        f"{len(true_set)} VC(s)"
                    )
        truly_pending = {node for node, nic in enumerate(net.nics) if nic.queue}
        if truly_pending != net._pending_nic_nodes:
            problems.append(
                f"pending-NIC set drifted: kept "
                f"{sorted(net._pending_nic_nodes)} != actual "
                f"{sorted(truly_pending)}"
            )
        if self._is_wbfc:
            self._deep_check_wbfc(problems)

    def _deep_check_wbfc(self, problems: list[str]) -> None:
        fc = self.network.flow_control
        assert isinstance(fc, WormBubbleFlowControl)
        for key, value in fc.ci.items():
            if value < 0:
                problems.append(f"CI{key} went negative: {value}")
        nonzero = {key for key, value in fc.ci.items() if value}
        kept = getattr(fc.ci, "nonzero_keys", nonzero)
        if kept != nonzero:
            problems.append(
                f"CI nonzero index drifted: kept {sorted(kept)} != "
                f"actual {sorted(nonzero)}"
            )
        for ring_id, lane in fc._lanes.items():
            occupied = sum(
                1
                for ivc in fc.ring_buffers[ring_id]
                if ivc.flits or ivc._owner is not None
            )
            if lane.occupied != occupied:
                problems.append(
                    f"ring {ring_id}: lane occupied count {lane.occupied} != "
                    f"recount {occupied}"
                )
            mask = 0
            for ivc in fc.ring_buffers[ring_id]:
                if not ivc.flits and ivc._owner is None:
                    mask |= 1 << ivc.ring_pos
            if lane.bubble_mask != mask:
                problems.append(
                    f"ring {ring_id}: lane bubble mask {lane.bubble_mask:#x} "
                    f"!= recount {mask:#x}"
                )
