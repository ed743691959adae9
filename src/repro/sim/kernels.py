"""Backend-neutral per-cycle decision kernels.

The engine backend seam: every *decision* a router or flow-control scheme
makes each cycle — downstream admission, WBFC injection verdicts,
worm-bubble displacement — lives here as a pure function of plain
values, shared by the object engine (``repro.sim.engine`` driving
``repro.network.router``) and the structure-of-arrays backend
(``repro.sim.soa``).  Bit-identity between backends reduces to both
calling these kernels on the same inputs in the same order; the object
graph and the flat arrays are just two *state layouts* around them.

Everything in this module is deterministic and side-effect-free: no RNG,
no wall clock, no mutation of arguments.  The determinism lint treats it
as kernel code.
"""

from __future__ import annotations

__all__ = [
    "ALLOW",
    "MARK",
    "DENY",
    "ovc_admission",
    "mp_table",
    "wbfc_transit_allows",
    "wbfc_injection_verdict",
    "flit_injection_verdict",
    "idle_rotation_step",
    "displacement_pass",
]

#: Injection-verdict codes shared by the WBFC kernels: the caller applies
#: the scheme's side effects (marking, counter claims) outside the kernel.
ALLOW = 1
MARK = 0
DENY = -1

#: Lazily-filled cache of ``repro.core.colors.CODE_TO_COLOR``; the import
#: must be deferred (see :func:`idle_rotation_step`) but not re-resolved on
#: every displacement call.
_CODE_TO_COLOR = None


# -- downstream admission (Equations 1-3) ------------------------------------


def ovc_admission(
    atomic: bool,
    vct: bool,
    allocated: bool,
    credits: int,
    capacity: int,
    length: int,
) -> bool:
    """May a head be granted this downstream VC, per switching mode?

    Atomic wormhole needs an empty, unallocated VC (Equation 3); VCT needs
    room for the whole packet (Equation 1); non-atomic wormhole needs one
    free flit slot (Equation 2).  Non-atomic modes still serialize packets
    per output VC so flits never interleave.
    """
    if atomic:
        return not allocated and credits == capacity
    if allocated:
        return False
    return credits >= (length if vct else 1)


# -- WBFC (Definition 3 and Sections 3.3-3.6) --------------------------------


def mp_table(max_packet_length: int, buffer_depth: int) -> list[int]:
    """``Mp = ceil(length / depth)`` indexed by packet length (0 unused)."""
    return [0] + [
        -(-length // buffer_depth) for length in range(1, max_packet_length + 1)
    ]


def wbfc_transit_allows(
    color_code: int,
    has_ctx: bool,
    ch: int,
    gray_entitled: bool,
    length: int,
    capacity: int,
    flits_entered: int,
) -> bool:
    """Equation (4) plus the marked-WB passage rule, for an in-ring move.

    ``color_code`` is the target worm-bubble's packed color; the remaining
    arguments describe the moving packet's ring context.
    """
    if color_code == 0:  # WHITE
        return True
    if not has_ctx:
        return False
    if color_code == 1:  # GRAY: in-transit grab, conserved
        return True
    if ch > 0:
        return True
    if gray_entitled:
        return True
    # Self-healing passage: single-buffer worm or tail fully inside.
    return length <= capacity or flits_entered >= length


def wbfc_injection_verdict(
    color_code: int,
    mp: int,
    ci: int,
    owner_blocked: bool,
    ml: int,
    black_reentry: bool,
) -> int:
    """Equations (5)/(6) with the black re-entry extension, as a verdict.

    Returns :data:`ALLOW`, :data:`DENY`, or :data:`MARK` — the last
    meaning the caller must mark the white WB black, bump ``CI`` and claim
    the marker, then deny this attempt (Step 2 of Section 3.2.1).
    ``owner_blocked`` is true when another packet holds the channel's
    marker; short packets (``mp == 1``) are decided before it applies.
    """
    if mp == 1:
        if color_code == 0:
            return ALLOW
        return ALLOW if (color_code == 1 and ml > 1) else DENY
    if owner_blocked:
        return DENY
    if color_code == 0:  # WHITE
        return ALLOW if ci >= mp - 1 else MARK
    if color_code == 1 and ci > 0:  # GRAY
        return ALLOW
    if black_reentry and color_code == 2 and ci >= mp:  # BLACK re-entry
        return ALLOW
    return DENY


def flit_injection_verdict(
    whites: int,
    grays: int,
    mp: int,
    ci: int,
    owner_blocked: bool,
    ml: int,
) -> int:
    """Flit-level WBFC injection verdict (Section 6 case (d)).

    Same contract as :func:`wbfc_injection_verdict`, over slot counts:
    ``whites``/``grays`` are free slots of each color in the downstream
    receiving buffer as seen through the upstream credit view.
    """
    if mp == 1:
        if whites >= 1:
            return ALLOW
        return ALLOW if (grays >= 1 and ml > 1) else DENY
    if owner_blocked:
        return DENY
    if whites >= 1:
        return ALLOW if ci >= mp - 1 else MARK
    if grays >= 1 and ci > 0:
        return ALLOW
    return DENY


# -- worm-bubble displacement (Section 3.6) ----------------------------------


def idle_rotation_step(colors: tuple) -> tuple[tuple, int]:
    """One backward-displacement step of an all-bubble ring's colors.

    Mirrors the backward pass of :func:`displacement_pass` for the case
    where every buffer is a worm-bubble: each black token swaps with the
    white or gray one position behind it, the shared ``moved`` set
    preventing chained transfers within one cycle.  Pure function of the
    color tuple.
    """
    # Deferred import: ``repro.core.__init__`` imports the flow-control
    # schemes, which import this module — a top-level import here would
    # close that cycle mid-initialization.  Both displacement kernels are
    # memoized by their callers, so the cached-module lookup is off the
    # per-cycle path.
    from ..core.colors import WBColor

    k = len(colors)
    out = list(colors)
    moved: set[int] = set()
    moves = 0
    black = WBColor.BLACK
    white = WBColor.WHITE
    gray = WBColor.GRAY
    for i in range(k):
        j = i + 1 if i + 1 < k else 0
        if i in moved or j in moved:
            continue
        ci = colors[i]
        if colors[j] is black and (ci is white or ci is gray):
            out[j] = ci
            out[i] = black
            moved.add(i)
            moved.add(j)
            moves += 1
    return tuple(out), moves


def displacement_pass(k: int, color_key: int, bubble_mask: int) -> tuple:
    """One proactive displacement pass (Section 3.6) as a pure function of
    a ring's packed (colors, worm-bubbles) vector.

    Returns ``(writes, new_color_key, displacements, forward)`` where
    ``writes`` is a tuple of ``(ring_pos, color)`` buffer write-backs.
    Callers memoize per distinct vector (``WormBubbleFlowControl._pass_memo``,
    shared with the SoA backend): a ring under traffic revisits a small set
    of vectors, so the two O(k) scans below amortize to one dict lookup per
    dirty lane per cycle.
    """
    global _CODE_TO_COLOR
    if _CODE_TO_COLOR is None:  # lazy: see idle_rotation_step
        from ..core.colors import CODE_TO_COLOR

        _CODE_TO_COLOR = CODE_TO_COLOR

    # All-integer scan: color codes (WHITE=0, GRAY=1, BLACK=2) straight out
    # of the packed key, bubbles as mask bits.  Codes only materialize into
    # WBColor members for the (small) write-back list at the very end.
    # Conditions are ordered cheapest-first; none has side effects, so the
    # reordering relative to the ``moved`` gate cannot change the outcome.
    codes = [(color_key >> (i + i)) & 3 for i in range(k)]
    moved = 0
    disp = fwd = 0
    writes = []
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
                writes.append(i)
                writes.append(j)
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
            writes.append(i)
            writes.append(j)
            fwd += 1
    new_key = 0
    for i in range(k):
        c = codes[i]
        if c:
            new_key |= c << (i + i)
    return (
        tuple((i, _CODE_TO_COLOR[codes[i]]) for i in sorted(writes)),
        new_key,
        disp,
        fwd,
    )
