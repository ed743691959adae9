"""Worm-Bubble Flow Control (WBFC) — the paper's core contribution.

WBFC makes wormhole-switched rings deadlock-free with **one escape VC** and
buffers as small as one flit, by managing empty escape buffers
(*worm-bubbles*, WBs) as colored tokens:

- Every ring starts with one **gray** WB and ``ML - 1`` **black** WBs,
  where ``ML = ceil(longest_packet / buffer_depth)`` (Definition 3).
- An injecting packet with ``Mp > 1`` repeatedly *marks* the white WB in
  its downstream receiving buffer black, counting marks in the shared
  per-injection-channel counter ``CI``; once ``CI >= Mp - 1`` and a white
  WB reappears, it injects (Equation 6, first clause).
- A packet with ``CI > 0`` that sees the **gray** WB may inject
  immediately (Equation 6, second clause) — the gray token breaks the
  simultaneous-injection starvation case of Figure 8.
- Short packets (``Mp = 1``) inject into any non-black WB (Equation 5).
- At injection, ``CI`` is copied into the head-flit counter ``CH`` and
  cleared; in transit the packet *unmarks* black WBs it enters while
  ``CH > 0``; leftover ``CH`` folds back into the destination's ``CI`` at
  ejection or dimension change (Steps 3-4, Section 3.2.1).
- In-transit packets may enter any empty buffer (Equation 4); entering a
  black/gray WB without unmarking *displaces* the color backward: the
  packet carries a color debt dropped onto the next buffer its tail
  vacates — the simulation analogue of the wbt_a/wbt_b transfer wires.
- Idle black WBs are proactively displaced backward past white/gray WBs
  each cycle, which also circulates the gray token forward (Section 3.6).

Interpretation notes (where the paper under-specifies):

- Equation (5) literally lets short packets take the gray WB.  When
  ``ML == 1`` that would consume the only token (Lemma 1 case (i) assumes
  it cannot), so we allow gray for ``Mp == 1`` only when ``ML > 1``.
- Proactive displacement is performed unconditionally on idle buffers
  (the paper conditions it on a waiting packet purely to save signaling).
- **CI reclaim** (liveness fix): Step 4's banking of leftover ``CH`` into
  the destination's ``CI`` can strand reservations at nodes where no
  packet ever injects, leaving a ring with zero white WBs and a starving
  ``CI = 0`` injector elsewhere.  We therefore run the exact inverse of
  marking: a node whose injection channel holds banked ``CI > 0`` with no
  local injector waiting unmarks a black WB in its downstream receiving
  channel (black -> white, ``CI -= 1``).  Like marking, this uses only
  local information, and it preserves the per-ring conservation law
  ``blacks == (ML - 1) + sum(CI) + sum(CH)``, so Lemma 1 is untouched.
  Disable with ``reclaim_banked_ci=False`` to observe the stranding.
- **Black re-entry** (liveness/performance extension): a long packet's own
  mark sits in its downstream receiving channel, and without passing
  traffic it can only leave via a backward displacement that needs a white
  upstream — the injector can poison its own watch position.  We allow a
  packet with ``CI >= max(Mp - 1, 1)`` to inject directly into a *black*
  WB, unmarking it as it enters (``CH = CI - 1``), provided ``CI >= Mp``
  so the remaining ``CH = Mp - 1`` still covers the blacks it may need to
  unmark while its tail enters.  By the same counting as Lemma 1 case
  (iii) the packet consumes only reservation-backed blacks, so the
  initial ``ML - 1`` blacks and the gray token survive and the ring keeps
  a marked WB.  Disable with ``black_reentry=False``.
- **Marked-WB passage** (safety-critical clarification): Equation (4)
  read literally lets an in-transit worm *longer than one buffer* consume
  a marked WB; its "backward transfer" then targets a buffer that never
  empties (the worm's own tail occupies it), the marked empty bubble is
  destroyed, and the ring can fill completely and deadlock — we reproduce
  this wedge in the test suite.  The paper's wbt_a/wbt_b handshake only
  completes when a free WB exists upstream, so we implement the rule it
  implies: an in-transit head may enter a marked WB only when it unmarks
  it (``CH > 0``, black) or when the worm is *fully inside the ring* —
  then entering the bubble lets exactly ``cap`` flit-shifts cascade down
  the worm, its rearmost buffer provably drains, and the displaced color
  re-appears on that emptied buffer (the CBS transfer, one worm-length
  later).  A freshly injected long worm is covered too: it carries
  ``CH = Mp - 1 >= 1`` and pays its way through blacks by unmarking until
  its tail has entered.  Blocked worms facing an immovable mark are
  additionally rescued by demand-driven *forward* displacement past a
  white ahead, and idle banked ``CI`` rights drift upstream one node at a
  time until they meet a black to reclaim — both implementable with the
  same neighbour wiring as wbt.
"""

from __future__ import annotations

from ..flowcontrol.base import FlowControl
from ..network.buffers import InputVC, OutputVC
from ..network.flit import Packet
from ..network.switching import Switching
from ..registry import FLOW_CONTROLS
from ..sim.config import NEVER
from .colors import CODE_TO_COLOR, WBColor
from .state import RingContext

__all__ = ["WormBubbleFlowControl"]

_GRAY = WBColor.GRAY.code
_BLACK = WBColor.BLACK.code


def _self_heals(packet: Packet, ivc: InputVC, ctx: RingContext) -> bool:
    """Marked-WB passage (module notes): the worm fits one buffer or its
    tail is fully inside the ring, so a color it displaces re-appears on a
    buffer that provably drains."""
    return packet.length <= ivc.capacity or ctx.flits_entered >= packet.length


class _CounterDict(dict):
    """Int-valued dict that tracks its number of nonzero entries.

    ``pre_cycle`` gates the CI-reclaim pass on "any banked CI anywhere";
    keeping the nonzero count on write makes that an O(1) attribute read
    instead of a per-cycle scan.  Only item assignment is used on the CI
    map (by the scheme and by tests poking ``fc.ci[...]`` directly), so
    only that is instrumented.
    """

    __slots__ = ("nonzero_keys",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.nonzero_keys = {key for key, v in self.items() if v}

    def __setitem__(self, key, value):
        if value:
            self.nonzero_keys.add(key)
        else:
            self.nonzero_keys.discard(key)
        super().__setitem__(key, value)


# -- worm-bubble displacement (Section 3.6) ----------------------------------
#
# Pure functions of a ring's packed (colors, worm-bubbles) vector: no RNG,
# no wall clock; the only argument ever written is the memo dict handed to
# ``idle_advance``.  ``pre_cycle`` and ``RingTokenLane.materialize`` apply
# their results to the one live token state.


def displacement_pass(k: int, color_key: int, bubble_mask: int) -> tuple:
    """One proactive displacement pass (Section 3.6) as a pure function of
    a ring's packed (colors, worm-bubbles) vector.

    Returns ``(new_color_key, displacements, forward)``; the pass moved
    tokens iff ``new_color_key != color_key``.  The caller memoizes per
    distinct vector (``WormBubbleFlowControl._pass_memo``): a ring under
    traffic revisits a small set of vectors, so the two O(k) scans below
    amortize to one dict lookup per dirty lane per cycle.
    """
    # All-integer scan: color codes (WHITE=0, GRAY=1, BLACK=2) straight out
    # of the packed key, bubbles as mask bits.
    # Conditions are ordered cheapest-first; none has side effects, so the
    # reordering relative to the ``moved`` gate cannot change the outcome.
    codes = [(color_key >> (i + i)) & 3 for i in range(k)]
    moved = 0
    disp = fwd = 0
    if 2 in codes:
        for i in range(k):
            j = i + 1 if i + 1 < k else 0
            ci = codes[i]
            if (
                ci != 2
                and codes[j] == 2
                and (bubble_mask >> j) & 1
                and (bubble_mask >> i) & 1
            ):
                bit = (1 << i) | (1 << j)
                if moved & bit:
                    continue
                # Backward transfer: black drifts toward the injector that
                # marked it, releasing its watch position.
                codes[j] = ci
                codes[i] = 2
                moved |= bit
                disp += 1
    for i in range(k):
        c = codes[i]
        if not c:
            continue
        j = i + 1 if i + 1 < k else 0
        if (
            codes[j] == 0
            and (bubble_mask >> i) & 1
            and (bubble_mask >> j) & 1
            and not (bubble_mask >> (i - 1 if i > 0 else k - 1)) & 1
        ):
            bit = (1 << i) | (1 << j)
            if moved & bit:
                continue
            # Forward transfer (demand-driven): a worm too long to consume
            # the marked bubble is blocked right behind it; swap the mark
            # with the white ahead so the worm can advance into a plain
            # bubble.
            codes[i] = 0
            codes[j] = c
            moved |= bit
            fwd += 1
    new_key = 0
    for i in range(k):
        c = codes[i]
        if c:
            new_key |= c << (i + i)
    return new_key, disp, fwd


def idle_advance(k: int, color_key: int, n: int, cache: dict) -> tuple[int, int]:
    """Advance an all-bubble ring's packed colors by ``n`` idle cycles.

    On a ring whose every buffer is a worm-bubble the forward pass of
    :func:`displacement_pass` cannot fire (it needs a non-bubble behind
    the mark), so the colors follow a closed deterministic automaton:
    ``n`` passes under a full bubble mask.  Returns ``(new_color_key,
    displacements)`` without running them one by one: the first visit to
    a state walks the automaton to its first repeat and memoizes, in
    ``cache``, ``(k, state) -> (trajectory, position)`` for every state on
    the walk.  A trajectory is ``(states, cum, first, close_moves)``: the
    distinct states in order, the cumulative move counts, the index the
    closing step returns to, and that step's moves.
    """
    hit = cache.get((k, color_key))
    if hit is None:
        full = (1 << k) - 1
        states = [color_key]
        cum = [0]
        index = {color_key: 0}
        while True:
            nxt, moves, _fwd = displacement_pass(k, states[-1], full)
            if nxt in index:
                trajectory = (states, cum, index[nxt], moves)
                break
            index[nxt] = len(states)
            states.append(nxt)
            cum.append(cum[-1] + moves)
        for pos, state in enumerate(states):
            cache[(k, state)] = (trajectory, pos)
        hit = (trajectory, 0)
    (states, cum, first, close_moves), pos = hit
    last = len(states) - 1
    target = pos + n
    if target <= last:
        return states[target], cum[target] - cum[pos]
    # Walk pos -> last, take the closing step back to ``first``, then wrap
    # the remainder around the cycle.
    period = last - first + 1
    period_moves = cum[last] - cum[first] + close_moves
    laps, rem = divmod(target - last - 1, period)
    new_pos = first + rem
    moves = cum[last] - cum[pos] + close_moves
    moves += laps * period_moves + (cum[new_pos] - cum[first])
    return states[new_pos], moves


class RingTokenLane:
    """One ring's token ledger: the only home of its worm-bubble colors.

    ``key`` packs every ring buffer's color (2 bits per ring position);
    ``InputVC.color`` is a view of it and the scheme's hooks read and
    write it directly, under either engine.  Beside it sit the ring's
    worm-bubble mask and occupancy count, and the deferred rotation of a
    fully idle ring (all worm-bubbles).  ``(key, bubble_mask)`` is the
    whole input of Section 3.6's displacement: on an occupied ring
    ``pre_cycle`` applies :func:`displacement_pass` to it; while a ring is
    idle its colors evolve as a closed deterministic automaton, so
    ``pre_cycle`` merely counts the steps it owes (``pending``) and every
    reader settles them first — ``materialize`` fast-forwards the key
    exactly through :func:`idle_advance` (memoized trajectories with
    period detection, shared across rings) and credits the skipped
    displacements to the stats dict.  Cost is O(period) once per distinct
    start state, independent of how long the ring stayed idle.
    """

    __slots__ = (
        "buffers",
        "pending",
        "occupied",
        "dirty",
        "stats",
        "traj_cache",
        "key",
        "bubble_mask",
    )

    def __init__(self, buffers: list[InputVC], stats: dict, traj_cache: dict):
        self.buffers = buffers
        self.pending = 0
        #: Ring buffers that are NOT worm-bubbles (holding flits or owned);
        #: maintained by ``on_bubble_change`` so ``pre_cycle`` knows in O(1)
        #: when the ring is fully idle and this lane may defer.
        self.occupied = 0
        #: False when the ring's (colors, bubbles) vector is unchanged
        #: since an eager pass that moved nothing — the pass is a pure
        #: function of that vector, so rerunning it would move nothing
        #: again.  Set by every color write (``InputVC.color`` setter) and
        #: bubble flip (``on_bubble_change``).
        self.dirty = True
        self.stats = stats
        self.traj_cache = traj_cache
        #: Packed 2-bit-per-buffer color vector (``WBColor.code`` at bit
        #: ``2 * ring_pos``); exact whenever ``pending`` is zero.
        self.key = 0
        #: Bit ``ring_pos`` set iff that buffer is a worm-bubble (empty and
        #: unowned); flipped by ``on_bubble_change``.  Together with
        #: ``key`` this is the exact input vector of the displacement
        #: pass, so ``(k, key, bubble_mask)`` keys the shared memo.
        self.bubble_mask = 0

    def materialize(self) -> None:
        n = self.pending
        if not n:
            return
        self.pending = 0
        key = self.key
        self.key, moves = idle_advance(len(self.buffers), key, n, self.traj_cache)
        if moves:
            self.stats["displacements"] += moves
        if self.key != key:
            self.dirty = True


@FLOW_CONTROLS.register("wbfc")
class WormBubbleFlowControl(FlowControl):
    """Worm-bubble flow control over every ring of the attached topology."""

    name = "wbfc"
    required_escape_vcs = 1

    def __init__(
        self,
        *,
        reclaim_banked_ci: bool = True,
        reclaim_patience: int = 2,
        black_reentry: bool = True,
    ) -> None:
        super().__init__()
        #: Liveness fix: recycle banked CI at idle injection channels.
        self.reclaim_banked_ci = reclaim_banked_ci
        #: Performance extension: CI-backed injection into a black WB.
        self.black_reentry = black_reentry
        #: Idle cycles before a banked CI is reclaimed.
        self.reclaim_patience = reclaim_patience
        #: Injection counter CI per injection channel: (node, ring_id) -> int.
        #: (_CounterDict: tracks its nonzero count for the reclaim gate.)
        self.ci: dict[tuple[int, str], int] = _CounterDict()
        #: Last cycle an injection was attempted per channel (reclaim gate).
        self._last_request: dict[tuple[int, str], int] = {}
        #: Downstream receiving buffer of each injection channel.
        self._downstream_of: dict[tuple[int, str], InputVC] = {}
        #: Sticky marker ownership per injection channel: key -> packet id.
        self.marker_owner: dict[tuple[int, str], int] = {}
        #: Reverse map: packet id -> injection-channel keys it owns.
        self._owned_keys: dict[int, tuple[int, str]] = {}
        #: ML (Definition 3, for the longest packet) per ring.
        self.ml: dict[str, int] = {}
        #: Mp = ceil(length / buffer_depth) per packet length (Definition
        #: 3), indexed by length; every ring escape buffer shares the
        #: configured depth, so one table serves all rings.  Filled by
        #: ``initialize_state``.
        self._mp_by_length: list[int] = []
        #: Per-ring deferred-rotation lanes (each also carries the ring's
        #: occupancy count) and the shared trajectory memo.
        self._lanes: dict[str, RingTokenLane] = {}
        self._lane_list: list[RingTokenLane] = []
        self._traj_cache: dict[tuple[int, int], tuple] = {}
        #: Displacement-pass memo shared by every lane: packed
        #: (k, colors, bubbles) vector -> ``displacement_pass`` result.
        self._pass_memo: dict[tuple[int, int, int], tuple] = {}
        #: Deterministic scan rank of each injection channel (the CI map's
        #: insertion order); lets ``_reclaim`` visit only nonzero entries
        #: while preserving the full scan's iteration order exactly.
        self._ci_order: dict[tuple[int, str], int] = {}
        #: Counters for reports/tests (read via the ``stats`` property).
        self._stats_dict = {
            "marks": 0,
            "unmarks": 0,
            "gray_grabs": 0,
            "displacements": 0,
            "reclaims": 0,
            "black_reentries": 0,
            "forward_displacements": 0,
            "ci_drifts": 0,
            "transit_gray_grabs": 0,
        }

    @property
    def stats(self) -> dict:
        """Counters for reports/tests; flushes deferred ring rotations first
        so lazily-batched displacements are always included."""
        for lane in self._lanes.values():
            if lane.pending:
                lane.materialize()
        return self._stats_dict

    # -- setup ---------------------------------------------------------------

    def validate(self) -> None:
        super().validate()
        assert self.network is not None
        if self.network.config.switching is not Switching.WORMHOLE_ATOMIC:
            raise ValueError(
                "WBFC requires atomic wormhole switching (Theorem 1 assumes "
                "atomic buffer allocation); use flit-level WBFC for "
                "non-atomic wormhole"
            )
        ml = self._ml()
        for ring in self.rings.values():
            if len(ring) < max(ml + 1, 2):
                raise ValueError(
                    f"ring {ring.ring_id} has {len(ring)} buffers but WBFC "
                    f"needs at least ML+1 = {ml + 1} (ML={ml}) to mark one "
                    "gray and ML-1 black WBs and still admit an injection; "
                    "use larger rings or deeper buffers"
                )

    def initialize_state(self) -> None:
        assert self.network is not None
        cfg = self.network.config
        ml = self._ml()
        self._mp_by_length = [0] + [
            self.m_value(length, cfg.buffer_depth)
            for length in range(1, cfg.max_packet_length + 1)
        ]
        for ring_id, buffers in self.ring_buffers.items():
            self.ml[ring_id] = ml
            lane = RingTokenLane(buffers, self._stats_dict, self._traj_cache)
            lane.occupied = sum(1 for b in buffers if b.flits or b.owner is not None)
            self._lanes[ring_id] = lane
            self._lane_list.append(lane)
            for pos, ivc in enumerate(buffers):
                ivc.color_lane = lane
                ivc.ring_pos = pos
                if not ivc.flits and ivc._owner is None:
                    lane.bubble_mask |= 1 << pos
            buffers[0].color = WBColor.GRAY
            for ivc in buffers[1:ml]:
                ivc.color = WBColor.BLACK
            k = len(buffers)
            for pos, hop in enumerate(self.rings[ring_id].hops):
                self.ci[(hop.node, ring_id)] = 0
                self._downstream_of[(hop.node, ring_id)] = buffers[(pos + 1) % k]
        self._ci_order = {key: rank for rank, key in enumerate(self.ci)}

    # -- checkpoint/restore -----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Token ledgers and counters; lane rotations are materialized
        first so the captured colors and stats are exact."""
        for lane in self._lane_list:
            if lane.pending:
                lane.materialize()
        return {
            # Plain dict: preserves the CI map's insertion order (which
            # _ci_order mirrors) without dragging _CounterDict's derived
            # nonzero index through the deep copy.
            "ci": dict(self.ci),
            "last_request": dict(self._last_request),
            "marker_owner": dict(self.marker_owner),
            "owned_keys": dict(self._owned_keys),
            "stats": dict(self._stats_dict),
        }

    def restore_state(self, state: dict) -> None:
        self.ci = _CounterDict(state["ci"])
        self._last_request = dict(state["last_request"])
        self.marker_owner = dict(state["marker_owner"])
        self._owned_keys = dict(state["owned_keys"])
        # The lanes alias _stats_dict; update in place so they keep seeing it.
        self._stats_dict.clear()
        self._stats_dict.update(state["stats"])
        # Each buffer's restore wrote its color into the lane key (and
        # dropped any rotation the lane owed); owners and flits bypassed
        # the setters, so recount what the lanes derive from them.
        self._recount_lanes()

    def _recount_lanes(self) -> None:
        """Re-derive every lane's occupancy count and bubble mask from its
        buffers' flits and owners, after a checkpoint restore wrote those
        without firing ``on_bubble_change``.  Colors are not touched: the
        lane key is their only store."""
        for lane in self._lane_list:
            lane.dirty = True
            occupied = 0
            mask = 0
            for pos, b in enumerate(lane.buffers):
                if b.flits or b._owner is not None:
                    occupied += 1
                else:
                    mask |= 1 << pos
            lane.occupied = occupied
            lane.bubble_mask = mask

    # -- static certification ---------------------------------------------------

    def certify_ring_exempt(self, ring_id: str) -> str | None:
        """Theorem 1: the ring's internal escape cycle cannot deadlock.

        WBFC initializes every ring with one gray and ``ML - 1`` black
        worm-bubbles and its injection rules (Equations 5/6) never let the
        last marked bubble be consumed, so at least one empty escape
        buffer entitlement survives any injection and the ring always
        internally drains.
        """
        ml = self.ml[ring_id]
        k = len(self.rings[ring_id])
        return (
            f"WBFC Theorem 1: ring {ring_id} (len {k}) keeps a "
            f"marked worm-bubble alive (ML={ml}: 1 gray + {ml - 1} black)"
        )

    # -- Definition 3 ----------------------------------------------------------

    @staticmethod
    def m_value(length: int, wb_capacity: int) -> int:
        """Minimal number of worm-bubbles needed to receive a packet."""
        # Integer ceiling division: exact where a float ceil is not.
        return -(-length // wb_capacity)

    def _ml(self) -> int:
        """``ML``: :meth:`m_value` of the longest packet the config allows."""
        assert self.network is not None
        cfg = self.network.config
        return self.m_value(cfg.max_packet_length, cfg.buffer_depth)

    # -- injection rules (Section 3.3) -----------------------------------------

    def escape_vc_choices(
        self, packet: Packet, node: int, out_port: int, in_ring: bool
    ) -> tuple[int, ...]:
        return (0,)

    def allow_escape(
        self,
        packet: Packet,
        node: int,
        out_port: int,
        ovc: OutputVC,
        in_ring: bool,
        cycle: int,
    ) -> bool:
        ivc = ovc.downstream
        ring_id = ivc.ring_id
        if ring_id is None:
            # Escape hop outside any ring (e.g. mesh): no restriction.
            return True
        lane = ivc.color_lane
        if lane.pending:
            lane.materialize()
        shift = ivc.ring_pos * 2
        code = (lane.key >> shift) & 3
        if in_ring:
            # Equation (4): a same-ring move needs the empty buffer the
            # caller already verified — plus the marked-WB passage rule
            # (see module notes) when the target is marked.
            if not code:
                # WHITE target, the common case: admitted unconditionally.
                return True
            ctx = packet.current_ctx
            if ctx is None:
                return False
            # GRAY: an in-transit grab, conserved.  BLACK: unmark it
            # (CH > 0), ride the gray entitlement, or self-heal.
            return (
                code == _GRAY
                or ctx.ch > 0
                or ctx.gray_entitled
                or _self_heals(packet, ivc, ctx)
            )
        key = (node, ring_id)
        self._last_request[key] = cycle
        # Table lookup for m_value(packet.length, ivc.capacity): every ring
        # escape buffer has the configured depth, and this runs per VA
        # injection attempt.
        mp = self._mp_by_length[packet.length]
        if mp == 1:
            # Equation (5): any non-black WB (gray only while ML > 1, see
            # module notes).  Short packets never touch the shared counter,
            # so a long packet's marker ownership does not gate them.
            return not code or (code == _GRAY and self.ml[ring_id] > 1)
        owner = self.marker_owner.get(key)
        if owner is not None and owner != packet.pid:
            return False
        ci = self.ci[key]
        if not code:
            # Equation (6), first clause: enough reservations and a white.
            if ci >= mp - 1:
                return True
            # Step 2: reserve — mark the white WB black, claim the counter,
            # and deny this attempt.
            lane.key += _BLACK << shift
            lane.dirty = True
            self.ci[key] = ci + 1
            self.marker_owner[key] = packet.pid
            self._owned_keys[packet.pid] = key
            self._stats_dict["marks"] += 1
            if self.probes.active:
                self.probes.wb_color(ivc, WBColor.WHITE, WBColor.BLACK, "mark")
                self.probes.ci_update(node, ring_id, 1, "mark")
            return False
        if code == _GRAY:
            # Equation (6), second clause: the gray token with CI > 0.
            return ci > 0
        # Black re-entry (module notes): CI covers this WB and Mp - 1 more.
        return self.black_reentry and ci >= mp

    # -- event notifications -----------------------------------------------------

    def on_acquire(self, packet: Packet, ivc: InputVC, in_ring: bool, node: int, cycle: int) -> None:
        if ivc.ring_id is None:
            return
        probes = self.probes if self.probes.active else None
        lane = ivc.color_lane
        if lane.pending:
            lane.materialize()
        shift = ivc.ring_pos * 2
        code = (lane.key >> shift) & 3
        if in_ring:
            ctx = packet.current_ctx
            if ctx is None or ctx.ring_id != ivc.ring_id:
                raise RuntimeError(
                    f"packet {packet.pid} made an in-ring move without a "
                    f"matching ring context at {ivc.label()}"
                )
            # Equation (4) entry: unmark a black WB if reservations remain
            # (Step 3), otherwise displace the color backward as debt —
            # permitted only for single-buffer packets (allow_escape
            # enforced it), whose tail frees the upstream buffer promptly.
            if code == _BLACK:
                if ctx.ch > 0:
                    ctx.ch -= 1
                    self._stats_dict["unmarks"] += 1
                    if probes:
                        probes.fc_event("wbfc_unmark", ivc.ring_id)
                else:
                    ctx.color_debt.append(WBColor.BLACK)
                    if probes:
                        probes.fc_event("wbfc_black_debt", ivc.ring_id)
            elif code == _GRAY:
                if _self_heals(packet, ivc, ctx):
                    # Self-healing worm: displace the gray backward as
                    # debt; the token stays an *empty* bubble one
                    # worm-length later (essential when ML == 1 and the
                    # gray is the ring's only marked bubble).
                    ctx.color_debt.append(WBColor.GRAY)
                    if probes:
                        probes.fc_event("wbfc_gray_debt", ivc.ring_id)
                else:
                    if ctx.holds_gray:
                        raise RuntimeError("a ring cannot hold two gray tokens")
                    ctx.holds_gray = True
                    self._stats_dict["transit_gray_grabs"] += 1
                    if probes:
                        probes.fc_event("wbfc_transit_gray_grab", ivc.ring_id)
        else:
            # Injection (Step 2 completing): open a fresh ring context and
            # move the shared counter into the head flit (CI -> CH).
            key = (node, ivc.ring_id)
            ctx = RingContext(ring_id=ivc.ring_id)
            ctx.ch = self.ci[key]
            self.ci[key] = 0
            if probes and ctx.ch:
                probes.ci_update(node, ivc.ring_id, -ctx.ch, "inject")
            if code == _BLACK:
                if not (self.black_reentry and ctx.ch >= 1):
                    raise RuntimeError("injection granted into a black worm-bubble")
                # Unmark-and-enter: one reservation pays for the black WB.
                ctx.ch -= 1
                self._stats_dict["unmarks"] += 1
                self._stats_dict["black_reentries"] += 1
                if probes:
                    probes.fc_event("wbfc_black_reentry", ivc.ring_id)
            if code == _GRAY:
                ctx.holds_gray = True
                ctx.gray_entitled = True
                self._stats_dict["gray_grabs"] += 1
                if probes:
                    probes.fc_event("wbfc_gray_grab", ivc.ring_id)
            packet.current_ctx = ctx
        ctx.occupied += 1
        ivc.occupant_ctx = ctx
        if code:
            if probes:
                probes.wb_color(ivc, CODE_TO_COLOR[code], WBColor.WHITE, "park")
            lane.key -= code << shift  # parked white while occupied
            lane.dirty = True

    def on_leave_ring(self, packet: Packet, node: int, cycle: int) -> None:
        ctx: RingContext | None = packet.current_ctx
        if ctx is None:
            return
        # Step 4: fold the leftover CH into the local injection channel of
        # the ring being left, conserving the global reservation count.
        key = (node, ctx.ring_id)
        if ctx.ch:
            self.ci[key] = self.ci.get(key, 0) + ctx.ch
            if self.probes.active:
                self.probes.ci_update(node, ctx.ring_id, ctx.ch, "bank")
            ctx.ch = 0
        ctx.closed = True
        packet.current_ctx = None

    def on_vacate(self, ivc: InputVC) -> None:
        ctx: RingContext | None = ivc.occupant_ctx
        if ctx is None:
            return
        ctx.occupied -= 1
        settled = ctx.settle_vacated_color()
        if self.probes.active and settled is not WBColor.WHITE:
            self.probes.wb_color(ivc, WBColor.WHITE, settled, "settle")
        # No rotation can be owed here: the ring has held this occupant.
        lane = ivc.color_lane
        shift = ivc.ring_pos * 2
        lane.key += (settled.code - ((lane.key >> shift) & 3)) << shift
        lane.dirty = True
        ivc.occupant_ctx = None

    def on_grant(self, packet: Packet, node: int, cycle: int) -> None:
        key = self._owned_keys.pop(packet.pid, None)
        if key is not None and self.marker_owner.get(key) == packet.pid:
            del self.marker_owner[key]

    def on_bubble_change(self, ivc: InputVC, occupied_delta: int) -> None:
        # Only VC-0 escape buffers carry tokens (= the ring_buffers lists).
        if ivc.vc == 0:
            lane = self._lanes.get(ivc.ring_id)
            if lane is not None:
                lane.occupied += occupied_delta
                lane.bubble_mask ^= 1 << ivc.ring_pos
                lane.dirty = True
                if occupied_delta > 0 and lane.pending:
                    # Ring leaves the fully-idle regime: settle any batched
                    # rotation before live traffic observes the tokens.
                    lane.materialize()

    def on_slot_filled(self, ivc: InputVC, flit) -> None:
        """Track how much of the worm has entered the ring.

        Flits are delivered in order, so seeing flit index ``i`` anywhere in
        the ring means flits ``0..i`` are all inside.
        """
        ctx = ivc.occupant_ctx
        if ctx is not None and ivc.owner is flit.packet:
            ctx.flits_entered = max(ctx.flits_entered, flit.index + 1)

    # -- proactive displacement (Section 3.6 wbt handshake) ------------------------

    def pre_cycle(self, cycle: int) -> None:
        # Hot path: this runs every cycle for every ring, so the work is
        # made proportional to live traffic.  Each lane's ``occupied``
        # count (maintained by ``on_bubble_change``) tells us in O(1) when
        # its ring is fully idle: every buffer is a worm-bubble, so the
        # forward (demand-driven) pass has no blocked worm to serve and
        # the backward pass is a closed color automaton — its steps are
        # *deferred* onto the ring's :class:`RingTokenLane` and replayed
        # exactly by any observer (every reader of the lane key, the
        # ``InputVC.color`` view included, settles ``pending`` first), so
        # skipping here is bit-invisible.  For occupied rings the pass is
        # a pure function of the lane's (key, bubble mask) vector.
        if self.reclaim_banked_ci and self.ci.nonzero_keys:  # type: ignore[attr-defined]
            self._reclaim(cycle)
        stats = self._stats_dict
        memo = self._pass_memo
        for lane in self._lane_list:
            if not lane.occupied:
                lane.pending += 1
                continue
            if lane.pending:
                # Settled on any occupancy/color touch; only reachable if
                # the ring became occupied without notification.
                lane.materialize()
            if not lane.dirty:
                # (colors, bubbles) unchanged since a pass that moved
                # nothing; both passes are pure in that vector, so this
                # one would move nothing too.
                continue
            k = len(lane.buffers)
            if lane.occupied > k - 2:
                # At most one bubble left: both passes need an adjacent
                # bubble pair, so neither can move anything.  (dirty is
                # left set; occupancy changes re-trigger it anyway.)
                continue
            key = lane.key
            vec = (k, key, lane.bubble_mask)
            entry = memo.get(vec)
            if entry is None:
                if len(memo) >= 1 << 16:
                    # Unbounded only in adversarial state spaces; a clear
                    # costs one recompute per live vector.
                    memo.clear()
                memo[vec] = entry = displacement_pass(k, key, lane.bubble_mask)
            new_key, disp, fwd = entry
            # A pass that moved tokens changed the vector (rerun next
            # cycle); a no-move pass settles the ring until a color write
            # or bubble flip dirties it again.
            if new_key != key:
                lane.key = new_key
                if disp:
                    stats["displacements"] += disp
                if fwd:
                    stats["forward_displacements"] += fwd
            else:
                lane.dirty = False

    def next_wake(self, cycle: int) -> int:
        """Event-horizon wake contract (see :class:`FlowControl`).

        On a quiescent network every lane is fully idle (a buffered flit
        or staged owner would keep its router in a phase set), so the
        displacement passes reduce to the deferred rotation that
        ``skip_cycles`` batches in O(1) per lane.  The only other thing
        ``pre_cycle`` does is CI reclaim, which mutates counters per
        cycle — demand a tick while any CI is banked.  Reclaim terminates:
        token conservation means banked CI implies surplus black tokens on
        the ring, and each reclaim step either converts one to white or
        drifts the CI upstream until it can, after which CI hits zero and
        the horizon opens.
        """
        if self.reclaim_banked_ci and self.ci.nonzero_keys:  # type: ignore[attr-defined]
            return cycle
        return NEVER

    def skip_cycles(self, span: int) -> None:
        """Batch ``span`` skipped cycles of idle-ring token rotation.

        Exactly what ``pre_cycle`` does per cycle on a fully idle lane
        (``lane.pending += 1``), folded into one addition; occupied lanes
        cannot exist on the quiescent networks this is called for, but the
        guard keeps the method safe under any caller.
        """
        for lane in self._lane_list:
            if not lane.occupied:
                lane.pending += span

    def _reclaim(self, cycle: int) -> None:
        """Recycle banked CI at idle injection channels (see module notes).

        A banked right whose local watch buffer holds an (unowned, empty)
        black WB unmarks it.  A right that cannot be applied locally —
        the watch is occupied or holds the gray — *drifts* one node
        upstream along the ring instead, so it eventually meets a black WB
        somewhere; rights are fungible, the per-ring sum is unchanged, and
        only neighbouring-router wiring (as for wbt) is needed.
        """
        ci_map = self.ci
        # Visit only nonzero entries, in the exact rank order a full
        # insertion-order scan would have reached them (every key is
        # ranked by ``initialize_state``).
        keys = ci_map.nonzero_keys  # type: ignore[attr-defined]
        scan = sorted(keys, key=self._ci_order.__getitem__)
        drifts: list[tuple[tuple[int, str], tuple[int, str]]] = []
        for key in scan:
            ci = ci_map[key]
            if ci <= 0 or key in self.marker_owner:
                continue
            if cycle - self._last_request.get(key, -(10**9)) <= self.reclaim_patience:
                continue
            ivc = self._downstream_of[key]
            lane = ivc.color_lane
            if lane.pending:
                lane.materialize()
            pos = ivc.ring_pos
            shift = pos * 2
            # The lane's bubble bit is ``ivc.is_worm_bubble``, kept by
            # ``on_bubble_change``.
            if (lane.bubble_mask >> pos) & 1 and (lane.key >> shift) & 3 == _BLACK:
                lane.key -= _BLACK << shift
                lane.dirty = True
                self.ci[key] = ci - 1
                self._stats_dict["reclaims"] += 1
                if self.probes.active:
                    self.probes.wb_color(ivc, WBColor.BLACK, WBColor.WHITE, "reclaim")
                    self.probes.ci_update(key[0], key[1], -1, "reclaim")
            elif cycle - self._last_request.get(key, -(10**9)) > 4 * self.reclaim_patience + 2:
                node, ring_id = key
                ring = self.rings[ring_id]
                pos = self.ring_position[(ring_id, node)]
                prev_node = ring.hops[(pos - 1) % len(ring)].node
                drifts.append((key, (prev_node, ring_id)))
        for src_key, dst_key in drifts:
            if self.ci[src_key] > 0:
                self.ci[src_key] -= 1
                self.ci[dst_key] = self.ci.get(dst_key, 0) + 1
                self._stats_dict["ci_drifts"] += 1
                if self.probes.active:
                    self.probes.ci_update(src_key[0], src_key[1], -1, "drift")
                    self.probes.ci_update(dst_key[0], dst_key[1], 1, "drift")
