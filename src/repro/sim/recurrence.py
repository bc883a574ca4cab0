"""The port recurrence, bit for bit, over a level of :mod:`repro.sim.portmajor`."""

from __future__ import annotations

import numpy as np

#: Fewest packets a guess of :func:`_contended_tails` must spare the loop
#: (or an eighth of those left, if more) to be worth its fixed cost: made
#: only where at least that many queue, kept making only while each
#: certifies that many.  Break-even measured at 165–300 + n/9 queued
#: packets in a call of n (EXPERIMENTS.md, Finding 4).
MIN_CERTIFIED = 256


def _tails(e: np.ndarray, ser: "float | np.ndarray", heads: np.ndarray, busy: list) -> np.ndarray:
    """The kernel's tails over one level: ``e`` the earliest starts, port by
    port, each in heap order; ``heads`` where each port's run begins;
    ``busy`` its ``busy_until``; ``ser`` one time or one per event.  One
    comparison finds the packets that queue; a port where at least
    ``MIN_CERTIFIED`` do, on one ``ser``, is :func:`_contended_tails`'
    to guess, and the rest are replayed in one :func:`_replay` pass."""
    out = e + ser
    if len(heads) == 1 and not isinstance(ser, np.ndarray):  # one port, one ser
        if e[0] < busy[0] or bool((e[1:] < out[:-1]).any()):
            _contended_tails(e, busy[0], ser, out)
        return out
    late = np.empty(e.size, dtype=bool)
    late[1:] = e[1:] < out[:-1]
    late[heads] = e[heads] < busy
    queueing = np.add.reduceat(late, heads)  # per port
    if not queueing.any():
        return out
    bounds = heads + [e.size]
    for k in np.flatnonzero(queueing >= MIN_CERTIFIED).tolist():
        a, b = bounds[k], bounds[k + 1]
        service = ser[a:b] if isinstance(ser, np.ndarray) else np.array([ser])
        if (service == service[0]).all():  # mixed sizes on one port are replayed
            _contended_tails(e[a:b], busy[k], float(service[0]), out[a:b])
            late[a:b] = False
    if late.any():
        service = ser.tolist() if isinstance(ser, np.ndarray) else [ser] * e.size
        _replay(e.tolist(), out, np.flatnonzero(late).tolist(), busy, service, bounds)
    return out


def _contended_tails(
    e: np.ndarray, busy: float, ser: "float | np.ndarray", out: "np.ndarray | None" = None
) -> np.ndarray:
    """Port tail times when packets queue on each other (or a busy port):
    bit for bit the recurrence ``start = max(busy, earliest); tail =
    start + ser``, packet by packet.  ``ser`` is one time, or one per
    packet (replayed as written); ``out``, if given, holds ``e + ser`` and
    is filled in place.

    With one ``ser`` the tails are **guessed, certified and repaired**:
    :func:`_guess_tails` fills every busy period in closed form, and the
    guess is exact where each entry satisfies the recurrence given its
    predecessor (one vectorized comparison).  From the first that fails
    the loop replays to the next idle packet, then guesses again.  A
    guess is made only where at least ``MIN_CERTIFIED`` packets, and an
    eighth of those left, queue; so no input costs more than the loop
    and a bounded number of vectorized passes."""
    if isinstance(ser, np.ndarray):
        return _tails(e, ser, [0], [busy])
    if out is None:
        out = e + ser  # the tail of a packet that finds the port idle
    size = e.size
    arrivals = None
    i = 0
    whole = [0, size]
    while True:
        # Packets that arrive before their predecessor's idle tail: what
        # the loop would replay, or about (a busy period's later packets
        # need not be among them).
        queued = np.flatnonzero(e[i + 1:] < out[i:-1]) + (i + 1)
        worth = max(MIN_CERTIFIED, (size - i) // 8)
        if queued.size < worth:
            break
        rest = e[i:]
        b = float(out[i - 1]) if i else busy
        guess = _guess_tails(rest, b, ser)
        prev = np.empty_like(guess)
        prev[0] = b
        prev[1:] = guess[:-1]
        held = guess == np.maximum(prev, rest) + ser
        good = rest.size if held.all() else int(held.argmin())
        out[i:i + good] = guess[:good]
        i += good
        if i == size:
            return out
        if good < worth:
            break
        # Repair: the busy period of the first entry that failed.
        if arrivals is None:
            arrivals = e.tolist()
        i = _replay(arrivals, out, [i], [busy], [ser] * size, whole)
        if i == size:
            return out
    if arrivals is None:
        arrivals = e.tolist()
    _replay(arrivals, out, [i] + queued[queued > i].tolist(), [busy], [ser] * size, whole)
    return out


def _replay(
    arrivals: list, out: np.ndarray, starts: list, busy: list, ser: list, bounds: list
) -> int:
    """The recurrence, packet by packet, over the busy periods that begin
    at ``starts`` (ascending; one inside the period just replayed is
    skipped), never into the next port's run: port ``k``'s run is
    ``bounds[k]:bounds[k + 1]``, a period at its head starts from
    ``busy[k]``.  ``ser`` holds each packet's service time, ``out`` every
    other tail already.  Returns the index after the last one replayed."""
    i = 0
    k = 0
    for start in starts:
        if start < i:
            continue
        i = start
        while bounds[k + 1] <= i:
            k += 1
        stop = bounds[k + 1]
        b = busy[k] if i == bounds[k] else float(out[i - 1])
        b = (arrivals[i] if b < arrivals[i] else b) + ser[i]
        out[i] = b
        i += 1
        while i < stop and arrivals[i] < b:
            b = b + ser[i]
            out[i] = b
            i += 1
    return i


def _guess_tails(e: np.ndarray, busy: float, ser: float) -> np.ndarray:
    """The recurrence's tails, guessed for the caller to certify: every
    busy period in closed form, split where its tails cross a power of
    two.  A period starts where ``e[i] − i·ser`` reaches its running max
    (``busy`` included; the max-plus form only *locates* starts).  From
    ``x0`` it leaves first at ``t1 = x0 + ser``, then every ``d = (t1 +
    ser) − t1``, ``t1 + m·d`` being exact inside a binade — on a half-ulp
    ``ser`` too, the tie that made ``t1`` having fixed the parity every
    later tie rounds from.  At the binade's top a new period starts from
    the tail before it, as the recurrence steps from it."""
    index = np.arange(e.size)
    key = e - index * ser
    key[0] = max(key[0], busy)  # the running max starts from ``busy``
    level = np.maximum.accumulate(key)
    start = key == level
    start[0] = True
    first = np.flatnonzero(start)
    x0 = e[first]
    x0[0] = max(x0[0], busy)
    t1 = x0 + ser
    d = (t1 + ser) - t1
    end = np.append(first[1:], e.size)
    parts = [(first, t1, d)]
    while True:
        # ``top − t1`` is exact, and the rounded quotient's ceiling is
        # never past the first m that reaches ``top``: a split too early
        # only restarts the period from a tail that is still exact.
        top = np.ldexp(1.0, np.frexp(t1)[1])
        with np.errstate(divide="ignore"):
            cross = first + np.ceil((top - t1) / d)
        split = cross < end
        if not split.any():
            break
        at = cross[split].astype(first.dtype)
        t1 = np.maximum(t1[split] + (at - 1 - first[split]) * d[split], e[at]) + ser
        d = (t1 + ser) - t1
        first, end = at, end[split]
        parts.append((first, t1, d))
    if len(parts) > 1:
        first, t1, d = (np.concatenate(column) for column in zip(*parts))
        order = first.argsort()
        first, t1, d = first[order], t1[order], d[order]
    else:
        first, t1, d = parts[0]
    length = np.diff(first, append=e.size)
    # Inside one binade every period steps alike: ``d`` is then a scalar.
    step = d[0] if bool((d == d[0]).all()) else np.repeat(d, length)
    return np.repeat(t1, length) + (index - np.repeat(first, length)) * step


def _bytes_after(base: np.ndarray, step: float, count: np.ndarray) -> np.ndarray:
    """Each ``base`` after its ``count`` sequential ``+= step``, bit for
    bit: one multiply-add where every partial sum is a whole number under
    2**53, the adds replayed elsewhere."""
    step = float(step)
    total = base + step * count
    exact = (base == np.floor(base)) & (np.abs(total) < 9007199254740992.0) & step.is_integer()
    for k in np.flatnonzero(~exact).tolist():
        carried = float(base[k])
        for _ in range(int(count[k])):
            carried += step
        total[k] = carried
    return total
