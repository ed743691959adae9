"""Structure-of-arrays engine backend (``backend="soa"``).

The object engine walks a graph of ``InputVC``/``OutputVC``/``Router``
objects every cycle; this backend flattens that graph into parallel flat
arrays indexed by ``idx = (node * num_ports + port) * num_vcs + vc`` and
drives the exact same phase schedule over them.  The win is locality and
dispatch: the hot loops touch small Python lists of ints instead of
chasing attributes through ``__slots__`` objects and property setters,
and the WBFC ring color state packs into one integer per ring (2 bits
per buffer), so the displacement pass is a memoized pure-integer kernel
call.

**Bit-identity contract.**  For every supported configuration this engine
produces results byte-for-byte identical to the object engine: the same
``MeasurementSummary``, the same activity counters, the same flow-control
statistics, and — via :meth:`SoAEngine.snapshot` — the same snapshot
state tree, so a run may hand over between backends mid-flight in either
direction.  The contract is what lets ``ScenarioSpec.content_hash``
exclude the backend choice.

**Supported matrix.**  Torus / mesh / unidirectional ring / bidirectional
ring topologies, DOR / ring / Duato minimal-adaptive routing, WBFC
(atomic wormhole, any VC count), flit-level WBFC (non-atomic wormhole,
single VC), or Dateline (atomic wormhole, two escape classes), open-loop
synthetic traffic or the closed-loop coherence workload, no
telemetry/probe subscribers, no sanitizer, no cycle
listeners, the stock :class:`~repro.sim.deadlock.Watchdog`.
Anything else raises :class:`~repro.sim.engine.BackendUnsupported` with a
machine-checkable witness, and ``prepare()`` falls back to the object
engine (recorded in ``PreparedScenario.backend_unsupported``).

Shared-live vs. arrayed state: NIC queues, packets, ring contexts, the
flow control's counter dicts and stats, and the network's O(1) occupancy
and activity counters are mutated in place (the object graph and the
arrays agree on them at all times).  Dateline's hooks touch only that
shared-live state (its ``_balance`` dict, ring contexts, and static
buffer attributes), so this engine calls them directly instead of
mirroring them.  Only the per-buffer pipeline state (flits deque binding,
owner, stage, ready cycle, route, colors, credits) and the event
calendars live in arrays, written back by ``_flush()`` at snapshot
boundaries and before any watchdog raise.

**One driver.**  :class:`SoAEngine` is a :class:`~repro.sim.engine.Simulator`:
``run``/``run_until``/``drain`` and the event-horizon skip are inherited,
and only the cycle body (``_tick``) and the three questions the skip asks
of the network state are answered from the arrays.

Idle-ring token rotation is *eager per ticked cycle* here: the object
engine defers the all-bubble backward pass onto a
:class:`~repro.core.wbfc.RingTokenLane` and replays it on observation;
this engine runs the memoized displacement kernel on every cycle it
ticks, and skipped spans go through the same
:func:`~repro.sim.kernels.idle_advance` the object lanes replay with.
Both materialize to the same colors at every observation point (the
object lane flushes before any read), so the difference is invisible —
see the backend parity suite.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

from ..core.colors import CODE_TO_COLOR, WBColor
from ..core.state import RingContext
from ..network.buffers import VCState
from ..network.switching import Switching
from ..registry import ENGINE_BACKENDS
from .config import NEVER
from .deadlock import DeadlockError, StarvationError, Watchdog
from .engine import BackendUnsupported, Simulator
from .kernels import (
    ALLOW,
    MARK,
    displacement_pass,
    flit_injection_verdict,
    idle_advance,
    wbfc_injection_verdict,
    wbfc_transit_allows,
)

if TYPE_CHECKING:  # pragma: no cover
    from .checkpoint import Snapshot

__all__ = ["SoAEngine"]

#: Pipeline states by array code; index == code, ``_ST_CODE`` inverts it.
_ST_ENUM = (VCState.IDLE, VCState.ROUTING, VCState.WAITING_VA, VCState.ACTIVE)
_ST_CODE = {member: code for code, member in enumerate(_ST_ENUM)}

_BLACK_CODE = WBColor.BLACK.code  # == 2; used in packed-lane arithmetic


def _check_supported(sim: Simulator) -> None:
    """Raise :class:`BackendUnsupported` unless ``sim`` is in the matrix."""
    from ..core.flit_level import FlitLevelWBFC
    from ..core.wbfc import WormBubbleFlowControl
    from ..flowcontrol.dateline import DatelineFlowControl
    from ..routing.dor import DimensionOrderRouting
    from ..routing.duato import DuatoAdaptiveRouting
    from ..routing.ring_routing import RingRouting
    from ..topology.mesh import Mesh
    from ..topology.ring import BidirectionalRing, UnidirectionalRing
    from ..topology.torus import Torus
    from ..traffic.generator import SyntheticTraffic
    from ..traffic.parsec import CoherenceWorkload

    def reject(reason: str, *witness) -> None:
        raise BackendUnsupported(f"soa backend: {reason}", witness)

    net = sim.network
    cfg = net.config
    topo = net.topology
    if type(topo) not in (Torus, Mesh, UnidirectionalRing, BidirectionalRing):
        reject("unsupported topology", "topology", type(topo).__name__)
    if type(net.routing) not in (
        DimensionOrderRouting,
        RingRouting,
        DuatoAdaptiveRouting,
    ):
        reject("unsupported routing", "routing", type(net.routing).__name__)
    fc = net.flow_control
    if type(fc) is WormBubbleFlowControl:
        if cfg.switching is not Switching.WORMHOLE_ATOMIC:
            reject("wbfc needs atomic wormhole", "switching", cfg.switching.value)
    elif type(fc) is FlitLevelWBFC:
        if cfg.num_vcs != 1:
            reject(
                "flit-level wbfc is single-VC only",
                "num_vcs",
                cfg.num_vcs,
                cfg.num_escape_vcs,
            )
    elif type(fc) is DatelineFlowControl:
        if cfg.switching is not Switching.WORMHOLE_ATOMIC:
            reject(
                "dateline needs atomic wormhole", "switching", cfg.switching.value
            )
    else:
        reject("unsupported flow control", "flow_control", fc.name)
    wl = sim.workload
    if wl is not None and type(wl) not in (SyntheticTraffic, CoherenceWorkload):
        reject("unsupported workload", "workload", type(wl).__name__)
    if net.probes.active:
        reject("probe subscribers attached", "telemetry", "probes")
    if sim.telemetry is not None:
        reject("telemetry session attached", "telemetry", "session")
    if sim.sanitizer is not None:
        reject("sanitizer reads live object state", "sanitizer", "on")
    if sim.cycle_listeners:
        reject("cycle listeners attached", "cycle_listeners", len(sim.cycle_listeners))
    if type(sim.watchdog) is not Watchdog:
        reject("custom watchdog", "watchdog", type(sim.watchdog).__name__)


class SoAEngine(Simulator):
    """Drop-in engine over flat arrays; see the module notes for scope."""

    def __init__(self, simulator: Simulator):
        _check_supported(simulator)
        super().__init__(
            simulator.network,
            simulator.workload,
            watchdog=simulator.watchdog,
            skip_idle=simulator.skip_idle,
        )
        self.inner = simulator
        self.cycle = simulator.cycle

        net = self.network
        cfg = net.config
        self._routing_delay = cfg.routing_delay
        self._vc_alloc_delay = cfg.vc_alloc_delay
        self._st_link_delay = cfg.st_link_delay
        self._credit_delay = cfg.credit_delay
        self._atomic = net._atomic
        self._N = net.topology.num_nodes
        self._P = net.topology.num_ports
        self._V = cfg.num_vcs
        self._PV = self._P * self._V
        self._nev = cfg.num_escape_vcs
        self._has_adaptive = cfg.num_adaptive_vcs > 0
        self._fc = net.flow_control
        self._routing = net.routing

        from ..core.flit_level import FlitLevelWBFC
        from ..core.wbfc import WormBubbleFlowControl

        fc = self._fc
        if type(fc) is WormBubbleFlowControl:
            self._fc_kind = "wbfc"
        elif type(fc) is FlitLevelWBFC:
            self._fc_kind = "flit"
        else:
            self._fc_kind = "dateline"
        #: Static escape-VC choice tuple, or ``None`` when the scheme picks
        #: dynamically (Dateline — called live, including its balance-bit
        #: side effect, exactly once per escape attempt like the router).
        self._esc_static = (0,) if self._fc_kind != "dateline" else None
        #: Schemes whose ``on_grant`` releases an injection marker.
        self._fc_marks = self._fc_kind != "dateline"

        # idx = (node * P + port) * V + vc; port 0 holds the NIC staging
        # slots, one per VC.
        self._ivcs = [
            ivc
            for router in net.routers
            for port_list in router.inputs
            for ivc in port_list
        ]
        self._idx_of = {id(ivc): i for i, ivc in enumerate(self._ivcs)}
        self._cap = [ivc.capacity for ivc in self._ivcs]
        self._ring = [ivc.ring_id for ivc in self._ivcs]

        # Channel wiring at port granularity: upstream (node, out_port) ->
        # downstream *base* index (its VC-0 buffer; + out_vc addresses the
        # granted plane).
        P, V = self._P, self._V
        self._out_base: list[int | None] = [None] * (self._N * P)
        for src, out_port, dst, in_port in net.topology.channels():
            self._out_base[src * P + out_port] = (dst * P + in_port) * V
        # (node, out_port) -> ring_id fed by that output (in-ring test).
        table = self._fc._ring_out_table
        self._ring_out: list[str | None] = (
            [rid for row in table for rid in row]
            if table
            else [None] * (self._N * P)
        )
        # Banked-CI reclaim watch buffer per (node, ring_id) key (WBFC
        # family only; Dateline has no counter bank).
        self._watch = (
            {
                key: self._idx_of[id(ivc)]
                for key, ivc in self._fc._downstream_of.items()
            }
            if self._fc_kind != "dateline"
            else {}
        )

        if self._fc_kind == "wbfc":
            self._pre_cycle = self._pre_cycle_wbfc
        elif self._fc_kind == "flit":
            self._pre_cycle = self._pre_cycle_flit
        else:
            self._pre_cycle = self._pre_cycle_none

        #: Per-tick counter batch, drained by ``_tick``: [buffered delta,
        #: flits moved, buffer writes, buffer reads, xbar, link, va grants].
        self._acc = [0, 0, 0, 0, 0, 0, 0]

        self._load()

    # -- object graph <-> arrays ---------------------------------------------

    def _load(self) -> None:
        """Capture the live object graph into the arrays.

        Runs at construction and after every ``restore`` — restore rebinds
        each buffer's ``flits`` deque, so ``_buf`` must re-capture the new
        bindings (the deques stay shared with the objects from then on).
        """
        n = len(self._ivcs)
        self._buf = [ivc.flits for ivc in self._ivcs]
        self._own = [ivc._owner for ivc in self._ivcs]
        self._st = [_ST_CODE[ivc._state] for ivc in self._ivcs]
        self._ready = [ivc.stage_ready for ivc in self._ivcs]
        self._outp = [ivc.out_port for ivc in self._ivcs]
        self._outv = [ivc.out_vc for ivc in self._ivcs]
        self._rcand = [ivc.route_candidates for ivc in self._ivcs]
        self._vafr = [ivc.va_first_request for ivc in self._ivcs]
        self._octx = [ivc.occupant_ctx for ivc in self._ivcs]
        self._cred = [0] * n
        self._alloc: list = [None] * n
        for i, ivc in enumerate(self._ivcs):
            feeder = ivc.feeder
            if feeder is not None:
                self._cred[i] = feeder.credits
                self._alloc[i] = feeder.allocated_to

        self._rc = {i for i in range(n) if self._st[i] == 1}
        self._va = {i for i in range(n) if self._st[i] == 2}
        self._sa = {i for i in range(n) if self._st[i] == 3}
        #: Escape-route derivatives, refreshed by RC (stale outside VA):
        #: escape port, downstream base index (-1 when unconnected or
        #: LOCAL), and the in-ring continuation flag.
        self._escp = [0] * n
        self._va_dbase = [-1] * n
        self._va_inring = [False] * n
        for i in sorted(self._va):
            self._route_aux(i, self._rcand[i][1])
        #: Granted downstream index (-1 for LOCAL ejection or none): SA and
        #: the send path read it instead of re-deriving base + out_vc.
        self._odidx = [-1] * n
        out_base = self._out_base
        P, PV = self._P, self._PV
        for i in sorted(self._sa):
            out_port = self._outp[i]
            if out_port:
                base = out_base[(i // PV) * P + out_port]
                assert base is not None
                self._odidx[i] = base + self._outv[i]

        net = self.network
        idx_of = self._idx_of
        self._arr = defaultdict(list, {
            when: [(idx_of[id(ivc)], flit) for ivc, flit in events]
            for when, events in net._arrivals.items()
        })
        self._crq = defaultdict(list, {
            when: [(idx_of[id(ovc.downstream)], is_tail) for ovc, is_tail in events]
            for when, events in net._credits.items()
        })
        self._ejq = defaultdict(list, {
            when: list(events) for when, events in net._ejections.items()
        })

        self._va_ptr = [r._va_arbiter._ptr for r in net.routers]
        self._sa_in = []
        self._sa_out = []
        for r in net.routers:
            self._sa_in.extend(a._ptr for a in r._sa_input_arbiters)
            self._sa_out.extend(a._ptr for a in r._sa_output_arbiters)

        fc = self._fc
        self._lane_of: list[int | None] = [None] * n
        if self._fc_kind == "wbfc":
            lanes = fc._lane_list
            self._lane_k = [len(lane.buffers) for lane in lanes]
            self._ring_pos = [0] * n
            self._rk = []
            self._rbub = []
            self._rocc = []
            for li, lane in enumerate(lanes):
                if lane.pending:
                    lane.materialize()
                key = mask = occ = 0
                for pos, b in enumerate(lane.buffers):
                    idx = idx_of[id(b)]
                    self._lane_of[idx] = li
                    self._ring_pos[idx] = pos
                    key |= b._color.code << (pos * 2)
                    if b.flits or b._owner is not None:
                        occ += 1
                    else:
                        mask |= 1 << pos
                self._rk.append(key)
                self._rbub.append(mask)
                self._rocc.append(occ)
            self._rdirty = [True] * len(lanes)
        elif self._fc_kind == "flit":
            self._black = [0] * n
            self._gray = [0] * n
            black_slots = fc.black_slots
            gray_slots = fc.gray_slots
            for buffers in fc.ring_buffers.values():
                for b in buffers:
                    i = idx_of[id(b)]
                    self._black[i] = black_slots.get(b, 0)
                    self._gray[i] = gray_slots.get(b, 0)
            self._fl_rings = [
                [idx_of[id(b)] for b in buffers]
                for buffers in fc.ring_buffers.values()
            ]

    def _flush(self) -> None:
        """Write the arrays back into the object graph.

        Afterwards the objects are exactly the state an object-engine run
        would hold at this cycle boundary: snapshots, restores, and direct
        inspection all see the contract state.  The arrays stay valid (this
        only reads them), so ticking may continue after a flush.
        """
        for idx, ivc in enumerate(self._ivcs):
            ivc.flits = self._buf[idx]
            ivc._owner = self._own[idx]
            ivc._state = _ST_ENUM[self._st[idx]]
            ivc.stage_ready = self._ready[idx]
            out_port = self._outp[idx]
            ivc.out_port = out_port
            ivc.out_vc = self._outv[idx]
            ivc.route_candidates = self._rcand[idx]
            ivc.va_first_request = self._vafr[idx]
            ivc.occupant_ctx = self._octx[idx]
            feeder = ivc.feeder
            if feeder is not None:
                feeder.credits = self._cred[idx]
                feeder.allocated_to = self._alloc[idx]

        fc = self._fc
        if self._fc_kind == "wbfc":
            for li, lane in enumerate(fc._lane_list):
                key = self._rk[li]
                for pos, b in enumerate(lane.buffers):
                    b._color = CODE_TO_COLOR[(key >> (pos * 2)) & 3]
            fc._recount_lanes()
        elif self._fc_kind == "flit":
            for ring in self._fl_rings:
                for idx in ring:
                    ivc = self._ivcs[idx]
                    fc.black_slots[ivc] = self._black[idx]
                    fc.gray_slots[ivc] = self._gray[idx]

        net = self.network
        ivcs = self._ivcs
        arrivals: dict = defaultdict(list)
        for when, events in self._arr.items():
            arrivals[when] = [(ivcs[idx], flit) for idx, flit in events]
        credits: dict = defaultdict(list)
        for when, events in self._crq.items():
            credits[when] = [(ivcs[idx].feeder, is_tail) for idx, is_tail in events]
        ejections: dict = defaultdict(list)
        for when, events in self._ejq.items():
            ejections[when] = list(events)
        net._arrivals = arrivals
        net._credits = credits
        net._ejections = ejections

        for node, router in enumerate(net.routers):
            router._va_arbiter._ptr = self._va_ptr[node]
            base = node * self._P
            for port, arb in enumerate(router._sa_input_arbiters):
                arb._ptr = self._sa_in[base + port]
            for port, arb in enumerate(router._sa_output_arbiters):
                arb._ptr = self._sa_out[base + port]
            (
                router._routing_vcs,
                router._waiting_va_vcs,
                router._active_vcs,
            ) = router.recount_stage_sets()
            router._sorted_routing = None
            router._sorted_waiting = None
            router._sorted_active = None
        rc, va, sa = set(), set(), set()
        for router in net.routers:
            if router._routing_vcs:
                rc.add(router.node)
            if router._waiting_va_vcs:
                va.add(router.node)
            if router._active_vcs:
                sa.add(router.node)
        net.phase_routers = (rc, va, sa)
        self.inner.cycle = self.cycle

    # -- checkpoint/restore ----------------------------------------------------

    def snapshot(self) -> "Snapshot":
        """Flush the arrays and delegate to the object engine's snapshot."""
        self._flush()
        return self.inner.snapshot()

    def restore(self, snapshot: "Snapshot") -> None:
        """Restore via the object engine, then re-capture the arrays."""
        self.inner.restore(snapshot)
        self.cycle = self.inner.cycle
        self._load()

    # -- event-horizon answers (asked by Simulator._skip_to_wake) ---------------

    def _is_quiescent(self) -> bool:
        return not (
            self._rc or self._va or self._sa or self.network._pending_nic_nodes
        )

    def _next_event_cycle(self, cycle: int) -> int:
        return min((*self._arr, *self._crq, *self._ejq), default=NEVER)

    def _skip_flow_control(self, span: int) -> None:
        # Only WBFC sleeps with per-cycle work owed: flit-level's
        # ``next_wake`` forbids skipping and Dateline keeps no tokens.
        if self._fc_kind != "wbfc":
            return
        fc = self._fc
        rk = self._rk
        rocc = self._rocc
        cache = fc._traj_cache
        moves = 0
        for lane, k in enumerate(self._lane_k):
            if not rocc[lane]:
                rk[lane], disp = idle_advance(k, rk[lane], span, cache)
                moves += disp
        if moves:
            fc._stats_dict["displacements"] += moves

    # -- the cycle ------------------------------------------------------------

    def _tick(self) -> None:
        cycle = self.cycle
        self._begin_cycle(cycle)
        if self.workload is not None:
            self.workload.step(cycle, self.network)
        self._load_nics(cycle)
        self._rc_phase(cycle)
        self._pre_cycle(cycle)
        self._va_phase(cycle)
        self._sa_phase(cycle)
        acc = self._acc
        if any(acc):
            # Per-tick counter batch: the flushes below are the only
            # observers (watchdog, metrics, occupancy predicates all read
            # between phases of no tick), so delivery/send paths bump a
            # plain list instead of network attributes.
            net = self.network
            net.buffered_flits += acc[0]
            net.flits_moved_this_cycle += acc[1]
            net.act_buffer_writes += acc[2]
            net.act_buffer_reads += acc[3]
            net.act_xbar_traversals += acc[4]
            net.act_link_traversals += acc[5]
            net.act_va_grants += acc[6]
            acc[0] = acc[1] = acc[2] = acc[3] = acc[4] = acc[5] = acc[6] = 0
        self._observe(cycle)
        for listener in self.cycle_listeners:
            listener(cycle)
        self.cycle = cycle + 1

    def _begin_cycle(self, cycle: int) -> None:
        net = self.network
        net.flits_moved_this_cycle = 0
        events = self._crq.pop(cycle, None)
        if events:
            cred = self._cred
            alloc = self._alloc
            for idx, is_tail in events:
                cred[idx] += 1
                if is_tail:
                    alloc[idx] = None
        events = self._arr.pop(cycle, None)
        if events:
            deliver = self._deliver
            for idx, flit in events:
                deliver(idx, flit, cycle)
        events = self._ejq.pop(cycle, None)
        if events:
            for node, flit in events:
                packet = flit.packet
                if flit.is_tail:
                    if node != packet.dst:
                        raise RuntimeError(
                            f"packet {packet.pid} ejected at node {node}, "
                            f"destination was {packet.dst}"
                        )
                    packet.ejected_cycle = cycle
                    net.packets_ejected += 1
                    net.flits_in_network -= packet.length
                    net.probes.packet_ejected(packet, cycle)

    def _deliver(self, idx: int, flit, cycle: int) -> None:
        buf = self._buf[idx]
        was_front = not buf
        buf.append(flit)
        acc = self._acc
        if idx % self._PV >= self._V:  # any port but LOCAL
            acc[0] += 1
        acc[2] += 1
        packet = flit.packet
        if self._atomic:
            ctx = self._octx[idx]
            if ctx is not None and self._own[idx] is packet:
                entered = flit.index + 1
                if entered > ctx.flits_entered:
                    ctx.flits_entered = entered
        else:
            rid = self._ring[idx]
            if rid is not None:
                ctx = self._fc._packet_ctx.get((packet.pid, rid))
                if ctx is not None:
                    black = self._black
                    gray = self._gray
                    whites_left = (
                        self._cap[idx] - len(buf) - black[idx] - gray[idx]
                    )
                    if whites_left >= 0:
                        pass  # consumed a white slot
                    elif black[idx] > 0:
                        black[idx] -= 1
                        if ctx.ch > 0:
                            ctx.ch -= 1
                            self._fc.stats["unmarks"] += 1
                        else:
                            ctx.color_debt.append(WBColor.BLACK)
                    elif gray[idx] > 0:
                        gray[idx] -= 1
                        ctx.holds_gray = True
                        self._fc.stats["gray_grabs"] += 1
                    ctx.occupied += 1
        if flit.is_head:
            packet.hops += 1
            if self._atomic:
                if self._own[idx] is not packet:
                    owner = self._own[idx]
                    raise RuntimeError(
                        f"head of packet {packet.pid} arrived at "
                        f"{self._ivcs[idx].label()} owned by "
                        f"{owner.pid if owner else None}"
                    )
                self._ready[idx] = cycle + self._routing_delay
                self._st[idx] = 1
                self._rc.add(idx)
            elif was_front:
                self._own[idx] = packet
                self._ready[idx] = cycle + self._routing_delay
                self._st[idx] = 1
                self._rc.add(idx)

    def _load_nics(self, cycle: int) -> None:
        net = self.network
        pending = net._pending_nic_nodes
        if not pending:
            return
        nics = net.nics
        PV = self._PV
        V = self._V
        st = self._st
        for node in sorted(pending) if len(pending) > 1 else list(pending):
            nic = nics[node]
            if not nic.queue:
                net.note_nic_pending(node, False)
                continue
            base = node * PV
            # First IDLE staging slot among the LOCAL port's VCs, exactly
            # like ``NIC.load``; none idle leaves the node pending.
            for vc in range(V):
                idx = base + vc
                if st[idx] == 0:
                    break
            else:
                continue
            packet = nic.queue.popleft()
            buf = self._buf[idx]
            for flit in packet.make_flits():
                buf.append(flit)
            self._own[idx] = packet
            self._ready[idx] = cycle + self._routing_delay
            st[idx] = 1
            self._rc.add(idx)
            if not nic.queue:
                net.note_nic_pending(node, False)

    # -- RC -------------------------------------------------------------------

    def _rc_phase(self, cycle: int) -> None:
        if not self._rc:
            return
        st = self._st
        ready = self._ready
        buf = self._buf
        route = self._routing.route
        PV = self._PV
        # idx order == (node, port, vc) order == the object's per-node scan.
        for i in sorted(self._rc):
            if st[i] == 1 and cycle >= ready[i]:
                adaptive, escape = route(i // PV, buf[i][0].packet)
                self._rcand[i] = (adaptive, escape)
                self._route_aux(i, escape)
                ready[i] = cycle + self._vc_alloc_delay
                self._rc.discard(i)
                st[i] = 2
                self._va.add(i)
                self._vafr[i] = None

    def _route_aux(self, i: int, escape: int) -> None:
        """Precompute the VA-time derivatives of a fresh escape route.

        ``dbase``/``in_ring`` depend only on ``(i, escape)`` and the escape
        route is only rewritten by RC, so computing them here keeps the
        per-cycle VA retry of a blocked head down to a few array reads.
        """
        self._escp[i] = escape
        if escape == 0:
            self._va_dbase[i] = -1
            self._va_inring[i] = False
            return
        pb = (i // self._PV) * self._P
        base = self._out_base[pb + escape]
        self._va_dbase[i] = -1 if base is None else base
        # Sticky escape: a head continuing along the ring it already rides
        # stays on the escape path; ``ring_id`` is only set on escape VCs,
        # so the test mirrors ``FlowControl.is_in_ring_move`` exactly.
        self._va_inring[i] = (
            self._ring[i] is not None
            and self._ring[i] == self._ring_out[pb + escape]
        )

    # -- flow-control pre-cycle ------------------------------------------------

    def _pre_cycle_none(self, cycle: int) -> None:
        """Schemes without per-cycle token maintenance (Dateline)."""

    def _pre_cycle_wbfc(self, cycle: int) -> None:
        fc = self._fc
        if fc.reclaim_banked_ci and fc.ci.nonzero_keys:
            self._reclaim_wbfc(cycle)
        # Memoized displacement kernel over every dirty lane.
        rk = self._rk
        rbub = self._rbub
        rocc = self._rocc
        rdirty = self._rdirty
        lane_k = self._lane_k
        memo = fc._pass_memo
        stats = fc._stats_dict
        for lane in range(len(lane_k)):
            if not rdirty[lane]:
                continue
            key = rk[lane]
            if not key:
                # All-white lane: both passes only move black/gray tokens,
                # so the kernel would report no writes — settle directly.
                rdirty[lane] = False
                continue
            k = lane_k[lane]
            if rocc[lane] > k - 2:
                # At most one bubble: neither pass can move anything.
                continue
            vec = (k, key, rbub[lane])
            entry = memo.get(vec)
            if entry is None:
                if len(memo) >= 1 << 16:
                    memo.clear()
                memo[vec] = entry = displacement_pass(k, key, rbub[lane])
            writes, new_key, disp, fwd = entry
            if writes:
                rk[lane] = new_key
                if disp:
                    stats["displacements"] += disp
                if fwd:
                    stats["forward_displacements"] += fwd
            else:
                rdirty[lane] = False

    def _reclaim_wbfc(self, cycle: int) -> None:
        fc = self._fc
        ci_map = fc.ci
        order = fc._ci_order
        keys = ci_map.nonzero_keys
        if keys <= order.keys():
            scan = sorted(keys, key=order.__getitem__)
        else:
            scan = [key for key, value in ci_map.items() if value]
        patience = fc.reclaim_patience
        last_request = fc._last_request
        marker_owner = fc.marker_owner
        stats = fc._stats_dict
        drifts = []
        for key in scan:
            ci = ci_map[key]
            if ci <= 0 or key in marker_owner:
                continue
            if cycle - last_request.get(key, -(10**9)) <= patience:
                continue
            widx = self._watch[key]
            lane = self._lane_of[widx]
            pos = self._ring_pos[widx]
            shift = pos * 2
            if (self._rbub[lane] >> pos) & 1 and (
                (self._rk[lane] >> shift) & 3
            ) == _BLACK_CODE:
                self._rk[lane] -= _BLACK_CODE << shift
                self._rdirty[lane] = True
                ci_map[key] = ci - 1
                stats["reclaims"] += 1
            elif cycle - last_request.get(key, -(10**9)) > 4 * patience + 2:
                node, ring_id = key
                ring = fc.rings[ring_id]
                pos_n = fc.ring_position[(ring_id, node)]
                prev_node = ring.hops[(pos_n - 1) % len(ring)].node
                drifts.append((key, (prev_node, ring_id)))
        for src_key, dst_key in drifts:
            if ci_map[src_key] > 0:
                ci_map[src_key] -= 1
                ci_map[dst_key] = ci_map.get(dst_key, 0) + 1
                stats["ci_drifts"] += 1

    def _pre_cycle_flit(self, cycle: int) -> None:
        fc = self._fc
        black = self._black
        gray = self._gray
        if fc.reclaim_banked_ci:
            patience = fc.reclaim_patience
            last_request = fc._last_request
            marker_owner = fc.marker_owner
            watch = self._watch
            for key, ci in fc.ci.items():
                if ci <= 0 or key in marker_owner:
                    continue
                if cycle - last_request.get(key, -(10**9)) <= patience:
                    continue
                widx = watch[key]
                if black[widx] > 0:
                    black[widx] -= 1
                    fc.ci[key] = ci - 1
                    fc.stats["reclaims"] += 1
        cap = self._cap
        buf = self._buf
        for ring in self._fl_rings:
            k = len(ring)
            for j in range(k):
                down = ring[j]
                if black[down] == 0:
                    continue
                up = ring[j - 1] if j else ring[k - 1]
                up_whites = cap[up] - len(buf[up]) - black[up] - gray[up]
                if up_whites >= 1:
                    black[down] -= 1
                    black[up] += 1
                    fc.stats["displacements"] += 1
                    break  # one transfer per ring per cycle (wbt handshake)
                if gray[up] >= 1 and gray[down] == 0:
                    gray[up] -= 1
                    black[up] += 1
                    black[down] -= 1
                    gray[down] += 1
                    fc.stats["displacements"] += 1
                    break

    # -- VA -------------------------------------------------------------------

    def _va_phase(self, cycle: int) -> None:
        va = self._va
        if not va:
            return
        PV = self._PV
        ready = self._ready
        va_ptr = self._va_ptr
        buf = self._buf
        vafr = self._vafr
        rcand = self._rcand
        va_dbase = self._va_dbase
        va_inring = self._va_inring
        alloc = self._alloc
        cred = self._cred
        cap = self._cap
        atomic = self._atomic
        has_adaptive = self._has_adaptive
        esc_single = self._esc_static is not None
        wbfc = self._fc_kind == "wbfc"
        allow = self._allow_wbfc if atomic else self._allow_flit
        grant = self._grant
        if wbfc:
            lane_of = self._lane_of
            ring_pos = self._ring_pos
            rk = self._rk
        # One sorted pass groups the waiting set by node; ascending idx
        # within a node is ascending (port, vc), the object engine's scan
        # order.  Grants never touch another node's waiting VCs, so the
        # snapshot taken here equals the object's per-router visit-time view.
        order = sorted(va)
        n = len(order)
        pos = 0
        while pos < n:
            node = order[pos] // PV
            limit = (node + 1) * PV
            requesters = []
            while pos < n and order[pos] < limit:
                i = order[pos]
                if cycle >= ready[i]:
                    requesters.append(i)
                pos += 1
            if not requesters:
                continue
            m = len(requesters)
            offset = va_ptr[node] % m
            va_ptr[node] += 1
            for t in range(m):
                t += offset
                i = requesters[t if t < m else t - m]
                if vafr[i] is None:
                    vafr[i] = cycle
                escape = rcand[i][1]
                if escape == 0:
                    grant(node, i, buf[i][0].packet, 0, 0, -1, False, False, cycle)
                    continue
                dbase = va_dbase[i]
                if dbase < 0:
                    raise RuntimeError(
                        f"escape route of packet {buf[i][0].packet.pid} "
                        f"leaves node {node} through unconnected port {escape}"
                    )
                in_ring = va_inring[i]
                packet = buf[i][0].packet
                if (
                    has_adaptive
                    and not in_ring
                    and self._try_adaptive(node, i, packet, rcand[i][0], cycle)
                ):
                    continue
                if not esc_single:
                    self._try_escape(node, i, packet, escape, dbase, in_ring, cycle)
                    continue
                # Single static escape VC (WBFC / flit-level): inline the
                # admission test and the in-ring WHITE fast path.
                didx = dbase
                if alloc[didx] is not None:
                    continue
                if atomic:
                    if cred[didx] != cap[didx]:
                        continue
                elif cred[didx] < 1:
                    continue
                if in_ring:
                    # In-ring transit: flit-level always admits, and a
                    # WHITE worm-bubble admits unconditionally (Equation
                    # 4) — the common case, decided without the scheme
                    # call.  ``_allow_wbfc`` re-derives the same answer
                    # for the colored targets.
                    if not wbfc or not (
                        (rk[lane_of[didx]] >> (ring_pos[didx] * 2)) & 3
                    ):
                        grant(node, i, packet, escape, 0, didx, True, True, cycle)
                    elif allow(packet, node, didx, True, cycle):
                        grant(node, i, packet, escape, 0, didx, True, True, cycle)
                elif allow(packet, node, didx, False, cycle):
                    grant(node, i, packet, escape, 0, didx, True, False, cycle)

    def _try_adaptive(
        self, node: int, i: int, packet, adaptive_ports, cycle: int
    ) -> bool:
        """Mirror of ``Router._try_adaptive``: congestion-scored port pick,
        first admitting adaptive VC per port."""
        out_base = self._out_base
        cred = self._cred
        cap = self._cap
        alloc = self._alloc
        atomic = self._atomic
        V = self._V
        nb = node * self._P
        best_port = -1
        best_vc = 0
        best_didx = -1
        best_score = -1
        for port in adaptive_ports:
            dbase = out_base[nb + port]
            if dbase is None:
                continue
            score = 0
            for vc in range(V):
                score += cred[dbase + vc]
            if score <= best_score:
                continue
            for vc in range(self._nev, V):
                didx = dbase + vc
                if alloc[didx] is not None:
                    continue
                if atomic:
                    if cred[didx] != cap[didx]:
                        continue
                elif cred[didx] < 1:
                    continue
                best_port, best_vc, best_didx, best_score = port, vc, didx, score
                break  # one free VC per port is enough to consider the port
        if best_port < 0:
            return False
        self._grant(node, i, packet, best_port, best_vc, best_didx, False, False, cycle)
        return True

    def _try_escape(
        self, node: int, i: int, packet, escape: int, dbase: int,
        in_ring: bool, cycle: int,
    ) -> bool:
        """Mirror of ``Router._try_escape`` for dynamic escape-VC schemes.

        ``escape_vc_choices`` is called exactly once per attempt — its
        side effects (Dateline's balance toggle) fire whether or not any
        choice is granted, just like the object router.
        """
        fc = self._fc
        choices = self._esc_static
        if choices is None:
            choices = fc.escape_vc_choices(packet, node, escape, in_ring)
        alloc = self._alloc
        cred = self._cred
        cap = self._cap
        atomic = self._atomic
        for vc in choices:
            didx = dbase + vc
            if alloc[didx] is not None:
                continue
            if atomic:
                if cred[didx] != cap[didx]:
                    continue
            elif cred[didx] < 1:
                continue
            if self._fc_kind == "dateline":
                # Dateline never vetoes an admitted escape VC.
                pass
            elif not (
                self._allow_wbfc if atomic else self._allow_flit
            )(packet, node, didx, in_ring, cycle):
                continue
            self._grant(node, i, packet, escape, vc, didx, True, in_ring, cycle)
            return True
        return False

    def _allow_wbfc(
        self, packet, node: int, didx: int, in_ring: bool, cycle: int
    ) -> bool:
        rid = self._ring[didx]
        if rid is None:
            return True
        fc = self._fc
        lane = self._lane_of[didx]
        shift = self._ring_pos[didx] * 2
        code = (self._rk[lane] >> shift) & 3
        if in_ring:
            if code == 0:
                # WHITE target: Equation (4) admits unconditionally.
                return True
            ctx = packet.current_ctx
            if ctx is None:
                return wbfc_transit_allows(code, False, 0, False, 0, 0, 0)
            return wbfc_transit_allows(
                code,
                True,
                ctx.ch,
                ctx.gray_entitled,
                packet.length,
                self._cap[didx],
                ctx.flits_entered,
            )
        key = (node, rid)
        fc._last_request[key] = cycle
        mp = fc._mp_by_length[packet.length]
        if mp == 1:
            verdict = wbfc_injection_verdict(
                code, 1, 0, False, fc.ml[rid], fc.black_reentry
            )
        else:
            owner = fc.marker_owner.get(key)
            verdict = wbfc_injection_verdict(
                code,
                mp,
                fc.ci[key],
                owner is not None and owner != packet.pid,
                fc.ml[rid],
                fc.black_reentry,
            )
        if verdict == ALLOW:
            return True
        if verdict == MARK:
            # Reserve: mark the white WB black, claim the counter.
            self._rk[lane] += _BLACK_CODE << shift
            self._rdirty[lane] = True
            fc.ci[key] += 1
            fc.marker_owner[key] = packet.pid
            fc._owned_keys[packet.pid] = key
            fc._stats_dict["marks"] += 1
        return False

    def _allow_flit(
        self, packet, node: int, didx: int, in_ring: bool, cycle: int
    ) -> bool:
        rid = self._ring[didx]
        if rid is None or in_ring:
            return True
        fc = self._fc
        key = (node, rid)
        fc._last_request[key] = cycle
        mp = packet.length
        whites = self._cred[didx] - self._black[didx] - self._gray[didx]
        if mp == 1:
            verdict = flit_injection_verdict(
                whites, self._gray[didx], 1, 0, False, fc.ml[rid]
            )
        else:
            owner = fc.marker_owner.get(key)
            verdict = flit_injection_verdict(
                whites,
                self._gray[didx],
                mp,
                fc.ci[key],
                owner is not None and owner != packet.pid,
                fc.ml[rid],
            )
        if verdict == ALLOW:
            return True
        if verdict == MARK:
            self._black[didx] += 1
            fc.ci[key] += 1
            fc.marker_owner[key] = packet.pid
            fc._owned_keys[packet.pid] = key
            fc.stats["marks"] += 1
        return False

    def _grant(
        self,
        node: int,
        i: int,
        packet,
        out_port: int,
        out_vc: int,
        didx: int,
        is_escape_hop: bool,
        in_ring: bool,
        cycle: int,
    ) -> None:
        fc = self._fc
        ctx = packet.current_ctx
        if out_port == 0:
            if ctx is not None:
                self._leave_ring(packet, node)
        else:
            rid = self._ring[didx]
            staying = (
                is_escape_hop
                and in_ring
                and ctx is not None
                and rid == ctx.ring_id
            )
            if ctx is not None and not staying:
                self._leave_ring(packet, node)
            self._alloc[didx] = packet
            if self._atomic:
                self._own[didx] = packet
                lane = self._lane_of[didx]
                if lane is not None and not self._buf[didx]:
                    self._rocc[lane] += 1
                    self._rbub[lane] ^= 1 << self._ring_pos[didx]
                    self._rdirty[lane] = True
            if is_escape_hop and rid is not None:
                kind = self._fc_kind
                if kind == "wbfc":
                    self._acquire_wbfc(packet, didx, in_ring, node)
                elif kind == "flit":
                    self._acquire_flit(packet, didx, in_ring, node)
                else:
                    # Dateline's hook reads only static buffer attributes
                    # and live contexts; call it on the real object.
                    fc.on_acquire(packet, self._ivcs[didx], in_ring, node, cycle)
        if self._fc_marks:
            key = fc._owned_keys.pop(packet.pid, None)
            if key is not None and fc.marker_owner.get(key) == packet.pid:
                del fc.marker_owner[key]
        wait = cycle - self._vafr[i]
        port = (i // self._V) % self._P
        if wait > 0 and (port == 0 or (out_port != 0 and out_port != port)):
            packet.injection_delay += wait
        self._outp[i] = out_port
        self._outv[i] = out_vc
        self._odidx[i] = didx
        self._ready[i] = cycle + 1
        self._va.discard(i)
        self._st[i] = 3
        self._sa.add(i)
        self._acc[6] += 1

    def _acquire_wbfc(self, packet, didx: int, in_ring: bool, node: int) -> None:
        fc = self._fc
        rid = self._ring[didx]
        lane = self._lane_of[didx]
        shift = self._ring_pos[didx] * 2
        code = (self._rk[lane] >> shift) & 3
        stats = fc._stats_dict
        if in_ring:
            ctx = packet.current_ctx
            if ctx is None or ctx.ring_id != rid:
                raise RuntimeError(
                    f"packet {packet.pid} made an in-ring move without a "
                    f"matching ring context at {self._ivcs[didx].label()}"
                )
            if code == 2:  # BLACK
                if ctx.ch > 0:
                    ctx.ch -= 1
                    stats["unmarks"] += 1
                else:
                    ctx.color_debt.append(WBColor.BLACK)
            elif code == 1:  # GRAY
                if packet.length <= self._cap[didx] or (
                    ctx.flits_entered >= packet.length
                ):
                    ctx.color_debt.append(WBColor.GRAY)
                else:
                    if ctx.holds_gray:
                        raise RuntimeError("a ring cannot hold two gray tokens")
                    ctx.holds_gray = True
                    stats["transit_gray_grabs"] += 1
        else:
            key = (node, rid)
            ctx = RingContext(ring_id=rid)
            ctx.ch = fc.ci[key]
            fc.ci[key] = 0
            if code == 2:  # BLACK
                if not (fc.black_reentry and ctx.ch >= 1):
                    raise RuntimeError("injection granted into a black worm-bubble")
                ctx.ch -= 1
                stats["unmarks"] += 1
                stats["black_reentries"] += 1
            if code == 1:  # GRAY
                ctx.holds_gray = True
                ctx.gray_entitled = True
                stats["gray_grabs"] += 1
            packet.current_ctx = ctx
        ctx.occupied += 1
        self._octx[didx] = ctx
        if code:
            self._rk[lane] -= code << shift  # parked white while occupied
        self._rdirty[lane] = True

    def _acquire_flit(self, packet, didx: int, in_ring: bool, node: int) -> None:
        if in_ring:
            return
        fc = self._fc
        rid = self._ring[didx]
        key = (node, rid)
        ctx = RingContext(ring_id=rid)
        ctx.ch = fc.ci[key]
        fc.ci[key] = 0
        packet.current_ctx = ctx
        key_ctx = (packet.pid, rid)
        old = fc._packet_ctx.get(key_ctx)
        if old is not None and not old.is_dead:
            raise RuntimeError(
                f"packet {packet.pid} re-entered ring {rid} while "
                "its previous context is still draining"
            )
        fc._packet_ctx[key_ctx] = ctx

    def _leave_ring(self, packet, node: int) -> None:
        # WBFC/flit-level fold the leftover CH into the local injection
        # channel; Dateline contexts never carry CH, so the fold is inert
        # and this one body serves all three schemes.
        fc = self._fc
        ctx = packet.current_ctx
        if self._fc_marks:
            key = (node, ctx.ring_id)
            if ctx.ch:
                fc.ci[key] = fc.ci.get(key, 0) + ctx.ch
                ctx.ch = 0
        ctx.closed = True
        packet.current_ctx = None

    # -- SA -------------------------------------------------------------------

    def _sa_phase(self, cycle: int) -> None:
        sa = self._sa
        if not sa:
            return
        PV = self._PV
        V = self._V
        ready = self._ready
        buf = self._buf
        outp = self._outp
        cred = self._cred
        odidx = self._odidx
        sa_in = self._sa_in
        sa_out = self._sa_out
        send = self._send
        # Same grouping trick as VA: sends only mutate their own node's
        # buffers this cycle (arrivals land on future cycles), so the
        # snapshot equals the object's per-router active set.
        order = sorted(sa)
        n = len(order)
        pos = 0
        while pos < n:
            node = order[pos] // PV
            base_p = node * self._P
            limit = (node + 1) * PV
            start = pos
            while pos < n and order[pos] < limit:
                pos += 1
            active = order[start:pos]
            if len(active) == 1:
                i = active[0]
                if cycle >= ready[i] and buf[i]:
                    out_port = outp[i]
                    if out_port == 0 or cred[odidx[i]] > 0:
                        sa_in[i // V] += 1
                        sa_out[base_p + out_port] += 1
                        send(i, cycle)
                continue
            if V == 1:
                # One VC per input port: each input arbiter has exactly one
                # candidate — it picks it and advances, collapsing the
                # per-port election to a counter bump and leaving only the
                # output-port election to arbitrate.
                requests: dict[int, list[int]] = {}
                for i in active:
                    if cycle < ready[i] or not buf[i]:
                        continue
                    out_port = outp[i]
                    if out_port != 0 and cred[odidx[i]] <= 0:
                        continue
                    sa_in[i] += 1
                    requests.setdefault(out_port, []).append(i)
            else:
                by_port: dict[int, list[int]] = {}
                for i in active:
                    if cycle < ready[i] or not buf[i]:
                        continue
                    out_port = outp[i]
                    if out_port != 0 and cred[odidx[i]] <= 0:
                        continue
                    by_port.setdefault(i // V, []).append(i)
                requests = {}
                for pb, eligible in by_port.items():
                    ptr = sa_in[pb]
                    sa_in[pb] = ptr + 1
                    pick = eligible[ptr % len(eligible)]
                    requests.setdefault(outp[pick], []).append(pick)
            for out_port, reqs in requests.items():
                ptr = sa_out[base_p + out_port]
                sa_out[base_p + out_port] = ptr + 1
                send(reqs[ptr % len(reqs)], cycle)

    def _send(self, idx: int, cycle: int) -> None:
        acc = self._acc
        buf = self._buf[idx]
        flit = buf.popleft()
        local = idx % self._PV < self._V
        if not local:
            acc[0] -= 1
        elif flit.is_head:
            flit.packet.injected_cycle = cycle
            self.network.flits_in_network += flit.packet.length
        acc[3] += 1
        acc[4] += 1
        out_port = self._outp[idx]
        atomic = self._atomic
        when = cycle + self._st_link_delay
        if out_port == 0:
            self._ejq[when].append((idx // self._PV, flit))
            didx = -1
        else:
            didx = self._odidx[idx]
            if self._cred[didx] <= 0:
                raise RuntimeError("sent a flit without a credit")
            self._cred[didx] -= 1
            self._arr[when].append((didx, flit))
            acc[5] += 1
        if not local:
            # This buffer has an upstream credit mirror; return the slot.
            self._crq[cycle + self._credit_delay].append(
                (idx, flit.is_tail and atomic)
            )
        acc[1] += 1
        if not atomic and not local:
            self._slot_freed(idx, flit)
        if flit.is_tail:
            if not atomic and out_port != 0:
                # Non-atomic: downstream accepts the next packet as soon as
                # this tail is on the wire.
                self._alloc[didx] = None
            if local:
                self.network.backlog_packets -= 1
                self._release(idx)
            elif atomic:
                if self._fc_kind == "wbfc":
                    self._vacate_wbfc(idx)
                    lane = self._lane_of[idx]
                    if lane is not None:
                        self._rocc[lane] -= 1
                        self._rbub[lane] ^= 1 << self._ring_pos[idx]
                        self._rdirty[lane] = True
                self._release(idx)
            else:
                self._advance_front(idx, cycle)

    def _slot_freed(self, idx: int, flit) -> None:
        rid = self._ring[idx]
        if rid is None:
            return
        fc = self._fc
        key_ctx = (flit.packet.pid, rid)
        ctx = fc._packet_ctx.get(key_ctx)
        if ctx is None:
            return
        ctx.occupied -= 1
        if ctx.color_debt:
            color = ctx.color_debt.pop()
            if color is WBColor.BLACK:
                self._black[idx] += 1
            else:
                self._gray[idx] += 1
        if ctx.is_dead:
            # Flush whatever the worm still carries onto its final buffer.
            for color in ctx.color_debt:
                if color is WBColor.BLACK:
                    self._black[idx] += 1
                else:
                    self._gray[idx] += 1
            ctx.color_debt.clear()
            if ctx.holds_gray:
                self._gray[idx] += 1
                ctx.holds_gray = False
            fc._packet_ctx.pop(key_ctx, None)

    def _vacate_wbfc(self, idx: int) -> None:
        ctx = self._octx[idx]
        if ctx is None:
            return
        ctx.occupied -= 1
        settled = ctx.settle_vacated_color()
        lane = self._lane_of[idx]
        if lane is not None:
            shift = self._ring_pos[idx] * 2
            current = (self._rk[lane] >> shift) & 3
            if settled.code != current:
                self._rk[lane] += (settled.code - current) << shift
            self._rdirty[lane] = True
        self._octx[idx] = None

    def _release(self, idx: int) -> None:
        self._rc.discard(idx)
        self._va.discard(idx)
        self._sa.discard(idx)
        self._st[idx] = 0
        self._own[idx] = None
        self._rcand[idx] = ()
        self._outp[idx] = None
        self._outv[idx] = None
        self._odidx[idx] = -1
        self._vafr[idx] = None
        self._octx[idx] = None

    def _advance_front(self, idx: int, cycle: int) -> None:
        buf = self._buf[idx]
        if not buf:
            self._release(idx)
            return
        front = buf[0]
        if not front.is_head:
            raise RuntimeError(
                f"packet boundary corrupted at {self._ivcs[idx].label()}: "
                f"{front!r} follows a tail"
            )
        self._own[idx] = front.packet
        self._ready[idx] = cycle + self._routing_delay
        self._sa.discard(idx)
        self._st[idx] = 1
        self._rc.add(idx)
        self._outp[idx] = None
        self._outv[idx] = None
        self._odidx[idx] = -1
        self._vafr[idx] = None
        # route_candidates deliberately kept stale, as in the object engine.

    # -- watchdog --------------------------------------------------------------

    def _observe(self, cycle: int) -> None:
        wd = self.watchdog
        if cycle >= wd._next_starvation_scan:
            # The starvation scan reads the NIC staging slots' owner/state
            # directly; sync just those two fields before delegating.
            PV = self._PV
            V = self._V
            own = self._own
            st = self._st
            ivcs = self._ivcs
            for node in range(self._N):
                base = node * PV
                for vc in range(V):
                    idx = base + vc
                    ivc = ivcs[idx]
                    ivc._owner = own[idx]
                    ivc._state = _ST_ENUM[st[idx]]
        try:
            wd.observe(cycle)
        except (DeadlockError, StarvationError):
            # Leave the object graph consistent for post-mortem inspection.
            self._flush()
            raise


@ENGINE_BACKENDS.register("soa")
def _soa_backend(simulator: Simulator) -> SoAEngine:
    """Structure-of-arrays backend; bit-identical on its supported matrix."""
    return SoAEngine(simulator)
