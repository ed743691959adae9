"""Pure WBFC decision kernels.

The pure statement of Equations (4)-(6) and Section 3.6: WBFC injection
and transit verdicts, worm-bubble displacement, idle-ring token rotation,
as functions of plain ints.  Their callers are the flow-control schemes
(``repro.core.wbfc``, ``repro.core.flit_level``), which apply the side
effects on the one live token state; both engines reach the rules only
through the schemes' ``FlowControl`` hooks.  The router pipeline itself
(downstream admission per Equations 1-3, allocation, arbitration) is
*not* here: each engine states it over its own state layout
(``Router._ovc_admits`` / the inlined tests in ``soa.py``) and the
backend parity suite holds the two together.

Everything in this module is deterministic and free of outside effects:
no RNG, no wall clock, no imports from ``repro.core``; the only argument
ever written is the memo dict handed to :func:`idle_advance`.  The
determinism lint treats it as kernel code.
"""

from __future__ import annotations

__all__ = [
    "ALLOW",
    "MARK",
    "DENY",
    "wbfc_transit_allows",
    "wbfc_injection_verdict",
    "flit_injection_verdict",
    "displacement_pass",
    "idle_advance",
]

#: Injection-verdict codes shared by the WBFC kernels: the caller applies
#: the scheme's side effects (marking, counter claims) outside the kernel.
ALLOW = 1
MARK = 0
DENY = -1


# -- WBFC (Sections 3.3-3.6) -------------------------------------------------


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
