"""Structure-of-arrays engine backend (``backend="soa"``).

The object engine walks a graph of ``InputVC``/``OutputVC``/``Router``
objects every cycle; this backend flattens the *router pipeline* state
of that graph into parallel flat arrays indexed by
``idx = (node * num_ports + port) * num_vcs + vc`` and drives the exact
same phase schedule over them.  The win is locality and dispatch: the hot
loops touch small Python lists of ints instead of chasing attributes
through ``__slots__`` objects and property setters.

**Bit-identity contract.**  For every supported configuration this engine
produces results byte-for-byte identical to the object engine: the same
``MeasurementSummary``, the same activity counters, the same flow-control
statistics, and — via :meth:`SoAEngine.snapshot` — the same snapshot
state tree, so a run may hand over between backends mid-flight in either
direction.  The contract is what lets ``ScenarioSpec.content_hash``
exclude the backend choice.

**Scope.**  Every network the simulator can build: any topology,
routing, flow-control scheme, switching mode and workload, with whatever
runs beside the simulation (telemetry sessions, probe subscribers, cycle
listeners, the sanitizer, any watchdog) honoured under the flush rule
below.  Two hooks are elided, as preconditions every buildable scheme
satisfies: under atomic switching ``on_slot_filled`` is inlined as
WBFC's (no other atomic scheme sets ``occupant_ctx``: CBS and BFC refuse
atomic switching, Dateline and unrestricted keep the no-op), and under
non-atomic switching an owner change fires no ``on_bubble_change`` (only
WBFC implements it, and WBFC refuses every mode but atomic).  The
constructor checks both by method identity and raises ``TypeError`` for a
scheme that overrides either hook; such a scheme runs on
``backend="object"``.

**Probe bus and the flush rule.**  Every ``PROBE_EVENTS`` event fires
with the object engine's arguments, at its cycle and in its order: the
flow-control and NIC-offer events from the live hooks, the seven
router-pipeline events from ``if probes.active:`` sites here that mirror
``Router``, ``Network._deliver`` and ``NIC.load``.  An ``InputVC`` passed
to a subscriber carries exactly: its identity, ``node``/``port``/``vc``/
``ring_id``/``label()``, ``flits``, ``owner``, ``color``,
``occupant_ctx``, and — from VA grant until release — ``out_port``/
``out_vc``.  It does **not** carry ``state``, ``stage_ready``,
``route_candidates``, ``va_first_request`` or ``feeder.credits``; those
are arrayed and exact only after ``_flush()``.  So before the object
graph goes to a reader this engine cannot vouch for, it flushes, once:
``_tick`` ahead of the first cycle listener the attached session does not
``owns()`` (the sanitizer is one), ``_observe`` when the stock watchdog's
starvation scan is due or the watchdog is any other.  A probe subscriber
gets no flush; one that needs those fields reads them from a cycle
listener instead.

**Shared-live vs. arrayed state.**  Everything a flow-control scheme owns
is shared-live, never mirrored: the ring token lanes (worm-bubble colors,
bubble masks, occupancy counts, deferred idle rotation), flit-level slot
colors, ``occupant_ctx``, ring contexts, counter dicts and stats — plus
buffer owners (half of what makes a buffer a worm-bubble), NIC queues,
packets and the network's O(1) occupancy and activity counters.  This
engine keeps none of it; it makes the calls the object router makes, on
the real objects, for every scheme: ``pre_cycle``, ``allow_escape``,
``on_acquire``, ``on_leave_ring``, ``on_grant``, ``on_vacate``,
``on_bubble_change`` at the two places an owner change flips a ring
buffer's bubble status, and ``on_slot_filled`` / ``on_slot_freed`` in
non-atomic mode.  So colors, the per-ring census and ``fc.stats`` read
between ticks are exact without a snapshot.  Only the router pipeline
state (flits deque binding, stage, ready cycle, route, credits and
allocation mirrors, arbiter pointers) and the event calendars live in
arrays, written back by ``_flush()`` at snapshot boundaries, under the
flush rule above and before any watchdog raise.

Two hand-overs cross that line.  Flit-level WBFC counts white slots,
and CBS and BFC count free space, through the upstream credit view, which
is arrayed, so before each non-atomic ``allow_escape`` on the single
escape VC the credit count is written onto the mirror
(``ovc.credits = cred[didx]``; ``_flush`` writes the same field anyway).
The schemes with several escape VCs (Dateline, unrestricted) read no
credits, so ``_try_escape`` owes none.
And on atomic delivery the three-line ``flits_entered`` update of
``WormBubbleFlowControl.on_slot_filled`` stays inline in ``_deliver``
(reading the live ``occupant_ctx`` and owner): one method call per
delivered flit is the one hook whose dispatch cost shows.  A WBFC
subclass therefore reaches this engine through every hook but that one.

**One driver.**  :class:`SoAEngine` is a :class:`~repro.sim.engine.Simulator`:
``run``/``run_until``/``drain`` and the event-horizon skip are inherited,
and only the cycle body (``_tick``) and the two questions the skip asks
of the router pipeline state are answered from the arrays.  Idle-ring
token rotation is the lanes' own deferral under both engines.

**Parking: what a losing request mutates.**  A request that cannot
succeed before a known credit returns leaves its live stage set, waits in
a :class:`_WaitTable` on the buffer(s) it needs, and costs nothing until
that buffer's event wakes it.  A visit may be skipped only if the loss
mutates nothing, or only what can be paid lazily:

- VA, eject (``escape == 0``): always granted.
- VA, single static escape VC (all but Dateline) with ``alloc[didx]``
  set and — with adaptive VCs, outside an in-ring continuation — every
  adaptive candidate allocated too: writes ``vafr`` on the first request
  only (before it parks), holds a rank and a count in the node's
  rotation, and advances ``va_ptr`` once per cycle.  **Parked** on
  ``didx`` and each candidate: the rank is kept by a per-node bitmask of
  parked local indices (``m = live_ready + parked``, live heads visited
  by merged rank from ``ptr % m``), the advances are paid on the next
  visit, on wake and in ``_flush()`` (``_va_paid``).
- VA, ``alloc`` clear but no room (atomic ``cred != cap``, VCT
  ``cred < packet.length``, non-atomic ``cred < 1``): mutates nothing but
  is a transient; stays live.
- VA, ``allow_escape`` refuses (WBFC injection): ages the node's request,
  may mark a worm-bubble, bump ``CI`` and take marker ownership.  Live.
- VA, Dateline: ``escape_vc_choices`` flips a balance bit per attempt.  Live.
- SA, not ready or empty buffer: nothing, but no single wake event.  Live.
- SA, ``cred[odidx] <= 0``: no arbiter pointer (only eligible VCs advance
  one), but a ``credit_stall`` probe per cycle while the bus is active.
  **Parked** on ``odidx`` while it is not; a bus that turns active
  returns every parked sender to the scan first.
- NIC load, no IDLE staging slot: nothing.  **Parked** on the node's
  LOCAL port, out of the network's pending set (``_flush()`` re-adds it).

Wake sites, the only places those conditions can change: the credit loop
of ``_begin_cycle`` (any credit: the sender; a tail credit, which clears
``alloc``: the heads), ``_send``'s tail (non-atomic ``alloc`` clear: the
heads; a LOCAL slot released: the NIC).  Parking is derived state — never
snapshotted, empty after ``_load()``, still counted by ``_is_quiescent``
— and the head → buffer table is the wait-for relation a deadlock oracle
starts from.  :attr:`SoAEngine.parking` says how much was not done.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

from ..network.buffers import VCState
from ..network.switching import Switching
from ..registry import ENGINE_BACKENDS
from .config import NEVER
from .deadlock import DeadlockError, StarvationError, Watchdog
from .engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from .checkpoint import Snapshot

__all__ = ["SoAEngine"]

#: Pipeline states by array code; index == code, ``_ST_CODE`` inverts it.
_ST_ENUM = (VCState.IDLE, VCState.ROUTING, VCState.WAITING_VA, VCState.ACTIVE)
_ST_CODE = {member: code for code, member in enumerate(_ST_ENUM)}


class _WaitTable:
    """Requests moved out of a ``live`` set until a buffer's credit returns.

    ``on[d]`` lists who registered on buffer ``d`` (deduplicated on append,
    dropped whole on wake, so bounded by ``d``'s feeder node);
    ``since[who]`` is the cycle of a parked requester's last real
    evaluation.  A registration that outlives its park is stale: ignored,
    or one harmless re-evaluation if ``who`` has parked again since.
    ``parks``/``skipped`` are exact, touched at park and wake time only.
    """

    __slots__ = ("live", "on", "since", "parks", "skipped")

    def __init__(self, live: set[int]) -> None:
        self.live = live
        self.on: dict[int, list[int]] = {}
        self.since: dict[int, int] = {}
        self.parks = 0
        self.skipped = 0

    def park(self, who: int, key: int, cycle: int) -> None:
        self.live.discard(who)
        self.since[who] = cycle
        self.parks += 1
        waiters = self.on.setdefault(key, [])
        if who not in waiters:
            waiters.append(who)

    def wake(self, key: int, upto: int) -> list[int]:
        """Return ``key``'s waiters to ``live``; they skipped through ``upto``."""
        since = self.since
        woken = []
        for who in self.on.pop(key):
            at = since.pop(who, None)
            if at is not None:
                self.skipped += upto - at
                self.live.add(who)
                woken.append(who)
        return woken


class SoAEngine(Simulator):
    """Drop-in engine over flat arrays; see the module notes for scope."""

    def __init__(self, simulator: Simulator):
        from ..core.wbfc import WormBubbleFlowControl
        from ..flowcontrol.base import FlowControl

        # The two elided hooks of the module notes, as preconditions.
        scheme = type(simulator.network.flow_control)
        if simulator.network._atomic:
            if scheme.on_slot_filled not in (
                FlowControl.on_slot_filled,
                WormBubbleFlowControl.on_slot_filled,
            ):
                raise TypeError(
                    f"soa inlines WBFC's on_slot_filled under atomic switching; "
                    f"{scheme.__name__} overrides it (use backend='object')"
                )
        elif scheme.on_bubble_change is not FlowControl.on_bubble_change:
            raise TypeError(
                f"soa fires no on_bubble_change under non-atomic switching; "
                f"{scheme.__name__} overrides it (use backend='object')"
            )
        super().__init__(
            simulator.network,
            simulator.workload,
            watchdog=simulator.watchdog,
            skip_idle=simulator.skip_idle,
        )
        self.inner = simulator
        self.cycle = simulator.cycle
        # One listener list, shared with the object simulator a session may
        # already be (or later get) attached to: the sampler must be seen
        # by this engine's ``_tick`` and by the inherited skip scan.
        self.cycle_listeners = simulator.cycle_listeners
        self.telemetry = simulator.telemetry
        self.sanitizer = simulator.sanitizer

        net = self.network
        cfg = net.config
        self._routing_delay = cfg.routing_delay
        self._vc_alloc_delay = cfg.vc_alloc_delay
        self._st_link_delay = cfg.st_link_delay
        self._credit_delay = cfg.credit_delay
        self._atomic = net._atomic
        self._vct = cfg.switching is Switching.VCT
        self._N = net.topology.num_nodes
        self._P = net.topology.num_ports
        self._V = cfg.num_vcs
        self._PV = self._P * self._V
        self._nev = cfg.num_escape_vcs
        self._has_adaptive = cfg.num_adaptive_vcs > 0
        self._fc = net.flow_control
        self._routing = net.routing
        self._probes = net.probes

        #: With one escape VC the scheme's choice can only be the static
        #: ``(0,)`` (every scheme but Dateline); Dateline has two and picks
        #: dynamically — called live, including its balance-bit side
        #: effect, exactly once per escape attempt like the router.
        self._esc_single = self._nev == 1

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
        #: Upstream credit mirror of each buffer (None for NIC slots): the
        #: ``ovc`` argument of ``allow_escape``.
        self._feeder = [ivc.feeder for ivc in self._ivcs]

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
        self._st = [_ST_CODE[ivc._state] for ivc in self._ivcs]
        self._ready = [ivc.stage_ready for ivc in self._ivcs]
        self._outp = [ivc.out_port for ivc in self._ivcs]
        self._outv = [ivc.out_vc for ivc in self._ivcs]
        self._rcand = [ivc.route_candidates for ivc in self._ivcs]
        self._vafr = [ivc.va_first_request for ivc in self._ivcs]
        self._cred = [0] * n
        self._alloc: list = [None] * n
        for i, feeder in enumerate(self._feeder):
            if feeder is not None:
                self._cred[i] = feeder.credits
                self._alloc[i] = feeder.allocated_to

        self._rc = {i for i in range(n) if self._st[i] == 1}
        self._va = {i for i in range(n) if self._st[i] == 2}
        self._sa = {i for i in range(n) if self._st[i] == 3}
        #: Parking is derived state, rebuilt empty: ``_va``/``_sa`` and the
        #: network's pending-NIC set hold the *live* requesters, these the
        #: rest (heads and senders by VC index; NICs by node, keyed by node).
        self._va_parked = _WaitTable(self._va)
        self._sa_parked = _WaitTable(self._sa)
        self._nic_parked = _WaitTable(self.network._pending_nic_nodes)
        #: Per node: bitmask of parked heads' local indices (their ranks in
        #: the VA rotation) and the last cycle its ``va_ptr`` is paid through.
        self._va_mask = [0] * self._N
        self._va_paid = [0] * self._N
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

    def _flush(self, upto: int | None = None) -> None:
        """Write the arrays back into the object graph.

        Afterwards the objects are exactly the state an object-engine run
        would hold at this cycle boundary: snapshots, restores, and direct
        inspection all see the contract state.  The arrays stay valid (this
        only reads them and settles what parking defers), so ticking may
        continue after a flush.  ``upto`` is the last cycle whose VA phase
        has run: the previous one, unless a watchdog raises mid-tick.
        """
        if upto is None:
            upto = self.cycle - 1
        for node, mask in enumerate(self._va_mask):
            if mask:  # a parked head is a ready requester: one advance a cycle
                self._va_ptr[node] += upto - self._va_paid[node]
                self._va_paid[node] = upto
        self.network._pending_nic_nodes.update(self._nic_parked.since)
        for idx, ivc in enumerate(self._ivcs):
            ivc.flits = self._buf[idx]
            ivc._state = _ST_ENUM[self._st[idx]]
            ivc.stage_ready = self._ready[idx]
            out_port = self._outp[idx]
            ivc.out_port = out_port
            ivc.out_vc = self._outv[idx]
            ivc.route_candidates = self._rcand[idx]
            ivc.va_first_request = self._vafr[idx]
            feeder = self._feeder[idx]
            if feeder is not None:
                feeder.credits = self._cred[idx]
                feeder.allocated_to = self._alloc[idx]

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
        net.rebuild_stage_sets()
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

    # -- event-horizon answers (asked by Simulator._advance/_skip_to_wake) ------

    def _is_quiescent(self) -> bool:
        # A parked NIC has every staging slot in one of these five.
        return not (
            self._rc or self._va or self._sa or self._va_parked.since
            or self._sa_parked.since or self.network._pending_nic_nodes
        )

    def _next_event_cycle(self, cycle: int) -> int:
        return min((*self._arr, *self._crq, *self._ejq), default=NEVER)

    # -- parking (module notes: "What a losing request mutates") ----------------

    @property
    def parking(self) -> dict[str, int]:
        """Exact counts of the work not done, per phase: requests ``parked``
        now, ``parks`` so far, evaluations ``skipped`` (settled to now)."""
        last = self.cycle - 1
        out = {}
        for kind, table in (
            ("va", self._va_parked), ("sa", self._sa_parked), ("nic", self._nic_parked)
        ):
            out[f"{kind}_parked"] = len(table.since)
            out[f"{kind}_parks"] = table.parks
            out[f"{kind}_skipped"] = table.skipped + sum(
                last - since for since in table.since.values()
            )
        return out

    def _wake_va(self, didx: int, upto: int) -> None:
        """``alloc[didx]`` cleared: the heads waiting on it ask again, and
        their node (a buffer has one feeder) pays its ``va_ptr`` to date."""
        woken = self._va_parked.wake(didx, upto)
        if woken:
            PV = self._PV
            node = woken[0] // PV
            self._va_ptr[node] += upto - self._va_paid[node]
            self._va_paid[node] = upto
            for i in woken:
                self._va_mask[node] &= ~(1 << (i % PV))

    # -- the cycle ------------------------------------------------------------

    def _tick(self) -> None:
        cycle = self.cycle
        self._begin_cycle(cycle)
        if self.workload is not None:
            self.workload.step(cycle, self.network)
        self._load_nics(cycle)
        self._rc_phase(cycle)
        self._fc.pre_cycle(cycle)
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
        flushed = self._observe(cycle)
        session = self.telemetry
        for listener in self.cycle_listeners:
            # The flush rule (module notes): the session's sampler is the
            # one listener that reads only what is exact here.
            if not (flushed or session is not None and session.owns(listener)):
                self._flush(cycle)
                flushed = True
            listener(cycle)
        self.cycle = cycle + 1

    def _begin_cycle(self, cycle: int) -> None:
        net = self.network
        net.flits_moved_this_cycle = 0
        events = self._crq.pop(cycle, None)
        if events:
            cred = self._cred
            alloc = self._alloc
            va_on = self._va_parked.on
            senders = self._sa_parked
            sa_on = senders.on
            last = cycle - 1
            for idx, is_tail in events:
                cred[idx] += 1
                if is_tail:
                    alloc[idx] = None
                    if idx in va_on:
                        self._wake_va(idx, last)
                if idx in sa_on:
                    # ``senders.wake(idx, last)``, inline: this is the one
                    # wake hot enough to show, and a sender registers on one
                    # buffer, so none of its entries is ever stale.
                    for i in sa_on.pop(idx):
                        senders.skipped += last - senders.since.pop(i)
                        self._sa.add(i)
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
        ivc = self._ivcs[idx]
        probes = self._probes
        if probes.active:
            probes.buffer_occupancy(ivc, 1)
            probes.flit_delivered(ivc, flit, cycle)
        if self._atomic:
            # ``WormBubbleFlowControl.on_slot_filled``, inline (see the
            # module notes); no other atomic scheme sets ``occupant_ctx``.
            ctx = ivc.occupant_ctx
            if ctx is not None and ivc._owner is packet:
                entered = flit.index + 1
                if entered > ctx.flits_entered:
                    ctx.flits_entered = entered
        else:
            self._fc.on_slot_filled(ivc, flit)
        if flit.is_head:
            packet.hops += 1
            if self._atomic:
                owner = ivc._owner
                if owner is not packet:
                    raise RuntimeError(
                        f"head of packet {packet.pid} arrived at "
                        f"{ivc.label()} owned by "
                        f"{owner.pid if owner else None}"
                    )
                self._ready[idx] = cycle + self._routing_delay
                self._st[idx] = 1
                self._rc.add(idx)
            elif was_front:
                ivc._owner = packet
                self._ready[idx] = cycle + self._routing_delay
                self._st[idx] = 1
                self._rc.add(idx)

    def _load_nics(self, cycle: int) -> None:
        net = self.network
        pending = net._pending_nic_nodes
        if not pending:
            return
        nics = net.nics
        probes = self._probes
        PV = self._PV
        V = self._V
        st = self._st
        parked = self._nic_parked
        for node in sorted(pending) if len(pending) > 1 else list(pending):
            if node in parked.since:  # re-added by an offer or a flush
                pending.discard(node)
                continue
            nic = nics[node]
            if not nic.queue:
                net.note_nic_pending(node, False)
                continue
            base = node * PV
            # First IDLE staging slot among the LOCAL port's VCs, exactly
            # like ``NIC.load``; none idle parks the node until ``_send``
            # releases one.
            for vc in range(V):
                idx = base + vc
                if st[idx] == 0:
                    break
            else:
                parked.park(node, node, cycle)
                continue
            packet = nic.queue.popleft()
            buf = self._buf[idx]
            slot = self._ivcs[idx]
            for flit in packet.make_flits():
                buf.append(flit)
                if probes.active:
                    probes.buffer_occupancy(slot, 1)
            slot._owner = packet
            self._ready[idx] = cycle + self._routing_delay
            st[idx] = 1
            self._rc.add(idx)
            if probes.active:
                probes.packet_staged(node, packet, cycle)
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
        esc_single = self._esc_single
        feeder = self._feeder
        allow_escape = self._fc.allow_escape
        grant = self._grant
        va_mask = self._va_mask
        va_paid = self._va_paid
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
            m = len(requesters)
            mask = va_mask[node]
            if mask:
                # Parked heads are ready requesters that lose: each cycle
                # since the last visit advanced the pointer, they count in
                # the modulus, and the live heads keep their ranks in the
                # merged (port, vc) order.
                va_ptr[node] += cycle - va_paid[node]
                va_paid[node] = cycle
                if not m:
                    continue
                offset = (va_ptr[node] - 1) % (m + mask.bit_count())
                base = node * PV
                for t, i in enumerate(requesters):
                    if t + (mask & ((1 << (i - base)) - 1)).bit_count() >= offset:
                        offset = t
                        break
                else:
                    offset = 0
            elif m:
                offset = va_ptr[node] % m
                va_ptr[node] += 1
            else:
                continue
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
                # Single static escape VC: inline the admission test,
                # then ask the scheme.
                didx = dbase
                if alloc[didx] is not None:
                    self._park_va(node, i, didx, in_ring, cycle)
                    continue
                if atomic:
                    if cred[didx] != cap[didx]:
                        continue
                elif cred[didx] < (packet.length if self._vct else 1):
                    continue
                ovc = feeder[didx]
                if not atomic:
                    # Hand-over: the scheme counts free space through the
                    # upstream credit view (see the module notes).
                    ovc.credits = cred[didx]
                if allow_escape(packet, node, escape, ovc, in_ring, cycle):
                    grant(node, i, packet, escape, 0, didx, True, in_ring, cycle)

    def _park_va(self, node: int, i: int, didx: int, in_ring: bool, cycle: int):
        """Park head ``i`` on every output VC it could be granted, if all
        of them are allocated; one that is free but still draining
        (``cred != cap``) is a transient and keeps the head live."""
        waits = []
        if self._has_adaptive and not in_ring:
            alloc = self._alloc
            nb = node * self._P
            for port in self._rcand[i][0]:
                dbase = self._out_base[nb + port]
                if dbase is not None:
                    for d in range(dbase + self._nev, dbase + self._V):
                        if alloc[d] is None:
                            return
                        waits.append(d)
        self._va_mask[node] |= 1 << (i % self._PV)
        self._va_paid[node] = cycle
        self._va_parked.park(i, didx, cycle)
        for d in waits:  # and on each adaptive candidate, deduplicated too
            waiters = self._va_parked.on.setdefault(d, [])
            if i not in waiters:
                waiters.append(i)

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
                elif cred[didx] < (packet.length if self._vct else 1):
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
        choice is granted, just like the object router.  Only schemes with
        several escape VCs come here (Dateline, unrestricted), and none of
        them reads the credit view, so no credit hand-over is owed.
        """
        fc = self._fc
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
            elif cred[didx] < (packet.length if self._vct else 1):
                continue
            if not fc.allow_escape(
                packet, node, escape, self._feeder[didx], in_ring, cycle
            ):
                continue
            self._grant(node, i, packet, escape, vc, didx, True, in_ring, cycle)
            return True
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
                fc.on_leave_ring(packet, node, cycle)
        else:
            rid = self._ring[didx]
            staying = (
                is_escape_hop
                and in_ring
                and ctx is not None
                and rid == ctx.ring_id
            )
            if ctx is not None and not staying:
                fc.on_leave_ring(packet, node, cycle)
            self._alloc[didx] = packet
            target = self._ivcs[didx]
            if self._atomic:
                # ``InputVC.owner``'s setter, stated on the arrays: the
                # admitted buffer is empty and unowned, so gaining an
                # owner is what ends a ring buffer's worm-bubble status.
                target._owner = packet
                if rid is not None:
                    fc.on_bubble_change(target, 1)
            if is_escape_hop and rid is not None:
                fc.on_acquire(packet, target, in_ring, node, cycle)
        fc.on_grant(packet, node, cycle)
        wait = cycle - self._vafr[i]
        port = (i // self._V) % self._P
        if wait > 0 and (port == 0 or (out_port != 0 and out_port != port)):
            packet.injection_delay += wait
        self._outp[i] = out_port
        self._outv[i] = out_vc
        # Also onto the live object: ``flit_sent`` subscribers read the
        # crossing off ``ivc``, and a sink may attach after this grant.
        ivc = self._ivcs[i]
        ivc.out_port = out_port
        ivc.out_vc = out_vc
        self._odidx[i] = didx
        self._ready[i] = cycle + 1
        self._va.discard(i)
        self._st[i] = 3
        self._sa.add(i)
        self._acc[6] += 1
        probes = self._probes
        if probes.active:
            probes.va_grant(
                node, ivc, packet, out_port, out_vc, is_escape_hop, wait, cycle
            )

    # -- SA -------------------------------------------------------------------

    def _sa_phase(self, cycle: int) -> None:
        sa = self._sa
        parked = self._sa_parked
        probes = self._probes
        if parked.since and probes.active:
            # ``credit_stall`` fires per stalled VC per cycle: a bus that
            # turned active returns every parked sender to the scan.
            for d in sorted(parked.on):
                parked.wake(d, cycle - 1)
        if not sa:
            return
        stalled: list[int] = []
        stall = stalled.append
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
        ivcs = self._ivcs
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
                    elif probes.active:
                        probes.credit_stall(node, ivcs[i], cycle)
                    else:
                        stall(i)
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
                        if probes.active:
                            probes.credit_stall(node, ivcs[i], cycle)
                        else:
                            stall(i)
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
                        if probes.active:
                            probes.credit_stall(node, ivcs[i], cycle)
                        else:
                            stall(i)
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
        # No credit returns within a phase, so parking can wait for its end.
        for i in stalled:
            parked.park(i, odidx[i], cycle)

    def _send(self, idx: int, cycle: int) -> None:
        acc = self._acc
        buf = self._buf[idx]
        flit = buf.popleft()
        probes = self._probes
        if probes.active:
            probes.buffer_occupancy(self._ivcs[idx], -1)
        local = idx % self._PV < self._V
        if not local:
            acc[0] -= 1
        elif flit.is_head:
            flit.packet.injected_cycle = cycle
            self.network.flits_in_network += flit.packet.length
            if probes.active:
                probes.packet_injected(idx // self._PV, flit.packet, cycle)
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
        if probes.active:
            probes.flit_sent(idx // self._PV, self._ivcs[idx], flit, cycle)
        if not local:
            # This buffer has an upstream credit mirror; return the slot.
            self._crq[cycle + self._credit_delay].append(
                (idx, flit.is_tail and atomic)
            )
        acc[1] += 1
        if not atomic and not local:
            self._fc.on_slot_freed(self._ivcs[idx], flit)
        if flit.is_tail:
            if not atomic and out_port != 0:
                # Non-atomic: downstream accepts the next packet as soon as
                # this tail is on the wire.
                self._alloc[didx] = None
                if didx in self._va_parked.on:
                    self._wake_va(didx, cycle)
            if local:
                self.network.backlog_packets -= 1
                self._release(idx)
                node = idx // self._PV
                if node in self._nic_parked.on:
                    self._nic_parked.wake(node, cycle)
            elif atomic:
                # ``on_vacate`` then the bubble flip of the owner's
                # departure, in the order ``InputVC.release`` fires them.
                fc = self._fc
                ivc = self._ivcs[idx]
                fc.on_vacate(ivc)
                self._release(idx)
                if self._ring[idx] is not None:
                    fc.on_bubble_change(ivc, -1)
            else:
                self._advance_front(idx, cycle)

    def _release(self, idx: int) -> None:
        self._rc.discard(idx)
        self._va.discard(idx)
        self._sa.discard(idx)
        self._st[idx] = 0
        self._ivcs[idx]._owner = None
        self._rcand[idx] = ()
        self._outp[idx] = None
        self._outv[idx] = None
        self._odidx[idx] = -1
        self._vafr[idx] = None

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
        self._ivcs[idx]._owner = front.packet
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

    def _observe(self, cycle: int) -> bool:
        """Run the watchdog; True if the object graph was flushed for it.

        The stock watchdog reads only counters, except in its sampled
        starvation scan (NIC staging slots' pipeline state); any other
        watchdog may read anything.
        """
        wd = self.watchdog
        flushed = type(wd) is not Watchdog or cycle >= wd._next_starvation_scan
        if flushed:
            self._flush(cycle)
        try:
            wd.observe(cycle)
        except (DeadlockError, StarvationError):
            # Leave the object graph consistent for post-mortem inspection.
            if not flushed:
                self._flush(cycle)
            raise
        return flushed


@ENGINE_BACKENDS.register("soa")
def _soa_backend(simulator: Simulator) -> SoAEngine:
    """Structure-of-arrays backend; bit-identical on every buildable network."""
    return SoAEngine(simulator)
