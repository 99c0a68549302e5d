"""Last-level-cache simulators.

The LLC simulator turns an address stream into a per-access hit/miss mask.
It serves two roles in the reproduction:

1. The cost model charges memory time only for LLC misses (hits are folded
   into the compute term), so the miss mask determines execution time.
2. The ATMem profiler samples every k-th miss address, modelling PEBS
   configured on an LLC-miss event (paper Section 5.1).

The system LLC is :class:`WorkingSetCache`, a linear-time working-set
approximation of a fully-associative LRU cache.  Two exact simulators
serve as references for tests and validation studies:

- :class:`DirectMappedCache` — exact direct-mapped simulation, fully
  vectorised with NumPy (a stable sort groups accesses by set while
  preserving program order inside each set).
- :class:`SetAssociativeCache` — exact N-way LRU simulation with a Python
  per-access loop (or a numba kernel, when installed).

Both exact simulators keep their state across calls so a multi-phase
trace is simulated as one continuous stream.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import ConfigurationError, TraceError
from repro.mem.cachejit import lru_kernel, reuse_gap_kernel

LINE_SHIFT = 6
LINE_SIZE = 1 << LINE_SHIFT

#: Reuse gap reported for the first access to a line (cold miss); matches
#: :data:`repro.mem.stack_distance.COLD` so cold sets line up across the
#: exact and approximate models.
GAP_COLD = np.iinfo(np.int64).max

#: When truthy, every reuse fold (masks included) is expanded to full
#: gaps and re-computed by the argsort fold; the two must be bit-identical
#: (the reuse parity oracle; :func:`repro.sim.reusepack.fold_reuse_chunks`
#: applies it to streamed folds as well).
VERIFY_REUSE_ENV = "REPRO_VERIFY_REUSE"

#: Accesses per block of the run-head scan (no N-sized line array).
_HEAD_BLOCK = 1 << 16

#: The dense last-seen table covers ``max - min + 1`` line slots; a
#: stream whose line span exceeds this multiple of its length is too
#: sparse for the table (the bump allocator makes real traces dense, so
#: this only trips on synthetic adversaries) and takes the run-head fold.
_DENSE_SPAN_FACTOR = 8


def _argsort_reuse_gaps(lines: np.ndarray) -> np.ndarray:
    """The O(N log N) reuse fold, one stable argsort: the parity oracle
    for the O(N) folds (see :func:`_head_reuse_gaps`)."""
    n = lines.size
    gaps = np.full(n, GAP_COLD, dtype=np.int64)
    order = np.argsort(lines, kind="stable")
    sorted_lines = lines[order]
    same = sorted_lines[1:] == sorted_lines[:-1]
    gaps_sorted = np.full(n, GAP_COLD, dtype=np.int64)
    gaps_sorted[1:][same] = order[1:][same] - order[:-1][same]
    gaps[order] = gaps_sorted
    return gaps


def dense_table_span(lines: np.ndarray) -> tuple[int, int] | None:
    """``(base, span)`` of a last-seen table for ``lines``, or ``None``.

    ``None`` means the stream is too sparse for a dense table (span more
    than :data:`_DENSE_SPAN_FACTOR` times the access count) and callers
    must not build one.
    """
    if lines.size == 0:
        return None
    base = int(lines.min())
    span = int(lines.max()) - base + 1
    if span > max(1024, _DENSE_SPAN_FACTOR * lines.size):
        return None
    return base, span


def _kernel_reuse_gaps(addrs: np.ndarray, line_shift: int) -> np.ndarray | None:
    """The O(N) last-seen fold, or ``None`` when it does not apply."""
    kernel = reuse_gap_kernel()
    if kernel is None:
        return None
    lines = addrs >> line_shift
    geometry = dense_table_span(lines)
    if geometry is None:
        return None
    base, span = geometry
    last_seen = np.full(span, -1, dtype=np.int64)
    gaps = np.empty(lines.size, dtype=np.int64)
    kernel(lines, base, last_seen, gaps, GAP_COLD, 0)
    return gaps


def _run_head_reuse_gaps(
    addrs: np.ndarray, line_shift: int
) -> tuple[np.ndarray, np.ndarray]:
    """The numpy O(N) reuse fold of a non-empty stream, in head space.

    Only *run heads* (accesses whose line differs from the previous
    access's) are folded; the rest have gap 1.  One sort of packed keys
    ``(line - min_line) << b | head_index`` groups the heads by line, its
    low ``b`` bits giving the order (a stable argsort when the key needs
    more than 64 bits: only sparse synthetic streams).  In that order a
    head's gap is its position minus the last position of the previous
    run of its line.  Returns ``(positions, gaps)`` in that order.
    """
    n = addrs.size
    is_head = np.empty(n + 1, dtype=bool)
    is_head[0] = is_head[n] = True  # [n]: a sentinel head past the end
    for start in range(1, n, _HEAD_BLOCK):
        lines = addrs[start - 1 : start + _HEAD_BLOCK] >> line_shift
        np.not_equal(lines[1:], lines[:-1], out=is_head[start : start + lines.size - 1])
    bounds = np.flatnonzero(is_head)
    del is_head
    heads = bounds[:-1]
    keys = addrs[heads]
    keys >>= line_shift
    keys -= keys.min()
    keys = keys.view(np.uint64)
    index_bits = (heads.size - 1).bit_length()
    if int(keys.max()).bit_length() + index_bits <= 64:
        keys <<= np.uint64(index_bits)
        keys |= np.arange(heads.size, dtype=np.uint64)
        keys.sort()
        order = (keys & np.uint64((1 << index_bits) - 1)).view(np.int64)
        keys >>= np.uint64(index_bits)
    else:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
    cold = keys[1:] != keys[:-1]
    del keys
    positions = heads[order]
    gaps = np.empty(heads.size, dtype=np.int64)
    gaps[0] = GAP_COLD
    warm = gaps[1:]
    # The previous run of a head's line ends one before the next run's
    # head; mode="clip" (a no-op here) lets take write straight into warm.
    np.take(bounds[1:], order[:-1], out=warm, mode="clip")
    del bounds, heads, order
    np.subtract(positions[1:], warm, out=warm)
    warm += 1
    warm[cold] = GAP_COLD
    return positions, gaps


def _head_reuse_gaps(
    addrs: np.ndarray, line_shift: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(positions, gaps)`` of the run heads (every other gap is 1).

    The one fold behind every mask and full gap array: the last-seen
    kernel's gaps read at its heads when numba is present, otherwise
    :func:`_run_head_reuse_gaps`.  ``REPRO_VERIFY_REUSE=1`` expands them
    and raises :class:`~repro.errors.TraceError` unless the argsort fold
    agrees (``reuse.parity_checks`` / ``reuse.parity_failures``).
    """
    if addrs.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    kernel_gaps = _kernel_reuse_gaps(addrs, line_shift)
    if kernel_gaps is None:
        positions, gaps = _run_head_reuse_gaps(addrs, line_shift)
    else:
        positions = np.flatnonzero(kernel_gaps != 1)
        gaps = kernel_gaps[positions]
    if os.environ.get(VERIFY_REUSE_ENV):
        _verify_reuse_gaps(
            _expand_gaps(addrs.size, positions, gaps), addrs >> line_shift
        )
    return positions, gaps


def _expand_gaps(n: int, positions: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Full per-access gaps from head space."""
    full = np.ones(n, dtype=np.int64)
    full[positions] = gaps
    return full


def reuse_time_gaps(addrs: np.ndarray, line_shift: int = LINE_SHIFT) -> np.ndarray:
    """Per-access reuse time gap at line granularity; ``GAP_COLD`` marks a
    first occurrence.

    The expansion of the head-space fold (:func:`_head_reuse_gaps`) for
    :mod:`repro.sim.reusepack`; masks stay in head space.  The gaps are
    **LLC-size-independent**: they depend only on the address stream and
    the line granularity.
    """
    addrs = np.asarray(addrs, dtype=np.int64)
    return _expand_gaps(addrs.size, *_head_reuse_gaps(addrs, line_shift))


def _verify_reuse_gaps(gaps: np.ndarray, lines: np.ndarray) -> None:
    """The reuse parity oracle: the argsort fold must agree bit-for-bit."""
    from repro.obs.metrics import process_metrics

    registry = process_metrics()
    registry.inc("reuse.parity_checks")
    direct = _argsort_reuse_gaps(lines)
    if not np.array_equal(gaps, direct):
        registry.inc("reuse.parity_failures")
        raise TraceError(
            "reuse fold diverged from the argsort fold: "
            f"{int(np.count_nonzero(gaps != direct))} of {gaps.size} "
            "gaps differ"
        )


def working_set_window(
    gaps: np.ndarray, capacity_lines: int, repeats: int = 0
) -> float:
    """The window W* whose average working-set size is ``capacity_lines``.

    The stream is ``gaps`` plus ``repeats`` implicit gap-1 accesses (the
    non-heads of a head-space caller).  ``f(W) = sum_i min(gap_i, W)``
    (cold gaps count as W) is piecewise linear and increasing; solve
    ``f(W*) = C * T`` exactly over a histogram of the warm gaps, with the
    repeats added to bin 1.  At gap value v,
    ``f(v) = sum_{g<v} g + v * (T - #{g<v})``; the first v with
    ``f(v) >= C * T`` fixes the segment, and W* is one division of exact
    integers (warm gaps of a T-access stream are below T, so at most T
    bins).  Equal to the float64 prefix curve over the sorted gaps while
    ``T**2`` and ``C * T`` stay below ``2**53``.  ``inf``: the footprint
    fits.
    """
    t = int(gaps.size) + repeats
    target = int(capacity_lines) * t
    warm = gaps[gaps < GAP_COLD]
    hist = np.bincount(warm, minlength=2)
    hist[1] += repeats
    values = np.flatnonzero(hist != 0)
    counts = hist[values]
    below = np.cumsum(counts) - counts  # #{g < v}
    weights = counts * values
    below_sum = np.cumsum(weights) - weights  # sum_{g<v} g
    f = below_sum + values * (t - below)
    if values.size and target <= int(f[-1]):
        v = int(np.searchsorted(f, target, side="left"))
        return (target - int(below_sum[v])) / (t - int(below[v]))
    n_cold = t - warm.size - repeats
    warm_sum = int(weights.sum())
    if n_cold == 0 or warm_sum + GAP_COLD * n_cold < target:
        return float("inf")
    return (target - warm_sum) / n_cold


def working_set_mask(
    n: int, positions: np.ndarray, gaps: np.ndarray, capacity_lines: int
) -> np.ndarray:
    """Hit iff ``gap <= W*`` (every warm gap when ``W*`` is ``inf``) for
    an ``n``-access stream with ``gaps`` at ``positions`` and gap 1
    elsewhere: gap-1 hits are one fill, head compares a scatter."""
    window = working_set_window(gaps, capacity_lines, n - positions.size)
    hits = np.full(n, window >= 1, dtype=bool)
    if window == float("inf"):
        hits[positions] = gaps < GAP_COLD
    else:
        hits[positions] = gaps <= window
    return hits


def _check_geometry(size_bytes: int, line_size: int) -> int:
    if line_size <= 0 or line_size & (line_size - 1):
        raise ConfigurationError(f"line size must be a power of two, got {line_size}")
    if size_bytes <= 0 or size_bytes % line_size:
        raise ConfigurationError(
            f"cache size {size_bytes} must be a positive multiple of the "
            f"line size {line_size}"
        )
    return size_bytes // line_size


class DirectMappedCache:
    """Exact direct-mapped cache with vectorised access simulation."""

    def __init__(self, size_bytes: int, line_size: int = LINE_SIZE) -> None:
        n_lines = _check_geometry(size_bytes, line_size)
        if n_lines & (n_lines - 1):
            raise ConfigurationError(
                f"direct-mapped cache needs a power-of-two line count, got {n_lines}"
            )
        self.size_bytes = size_bytes
        self.line_size = line_size
        self._line_shift = line_size.bit_length() - 1
        self.n_sets = n_lines
        # Resident line number per set; -1 = empty.
        self._resident = np.full(n_lines, -1, dtype=np.int64)

    def reset(self) -> None:
        """Empty the cache (cold state)."""
        self._resident.fill(-1)

    def access(self, addrs: np.ndarray) -> np.ndarray:
        """Simulate the address stream; returns a boolean hit mask.

        The simulation is exact: access *i* hits iff the most recent access
        to its set (within this call or carried over from earlier calls)
        touched the same line.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        if addrs.size == 0:
            return np.empty(0, dtype=bool)
        lines = addrs >> self._line_shift
        sets = lines & (self.n_sets - 1)
        # Stable sort groups same-set accesses while keeping program order.
        order = np.argsort(sets, kind="stable")
        sorted_sets = sets[order]
        sorted_lines = lines[order]
        hits_sorted = np.empty(addrs.size, dtype=bool)
        # Within a same-set run, hit iff previous access touched the same line.
        same_set_as_prev = np.empty(addrs.size, dtype=bool)
        same_set_as_prev[0] = False
        same_set_as_prev[1:] = sorted_sets[1:] == sorted_sets[:-1]
        hits_sorted[1:] = same_set_as_prev[1:] & (sorted_lines[1:] == sorted_lines[:-1])
        # Run heads compare against the carried-over resident line.
        heads = ~same_set_as_prev
        head_idx = np.nonzero(heads)[0]
        hits_sorted[head_idx] = (
            self._resident[sorted_sets[head_idx]] == sorted_lines[head_idx]
        )
        # Update state: the last access of each set run becomes resident.
        tails = np.empty(addrs.size, dtype=bool)
        tails[:-1] = sorted_sets[:-1] != sorted_sets[1:]
        tails[-1] = True
        tail_idx = np.nonzero(tails)[0]
        self._resident[sorted_sets[tail_idx]] = sorted_lines[tail_idx]
        hits = np.empty(addrs.size, dtype=bool)
        hits[order] = hits_sorted
        return hits


class SetAssociativeCache:
    """Exact N-way set-associative LRU cache.

    LRU state is strictly per set, so :meth:`access` groups the stream by
    set with a stable argsort (the same trick as
    :class:`DirectMappedCache`) and replays each set's accesses in program
    order against plain Python ints — an order of magnitude faster than
    the naive per-access loop, which survives as
    :meth:`access_reference` for parity testing.  When numba is
    installed (optional — see :mod:`repro.mem.cachejit`) the per-set
    replay runs as a compiled kernel over flat int64 state with
    bit-identical semantics; without it the Python loop is used.
    Intended for tests and validation studies on traces up to a few
    million accesses.
    """

    def __init__(self, size_bytes: int, ways: int, line_size: int = LINE_SIZE) -> None:
        n_lines = _check_geometry(size_bytes, line_size)
        if ways <= 0 or n_lines % ways:
            raise ConfigurationError(
                f"cache with {n_lines} lines cannot have {ways} ways"
            )
        n_sets = n_lines // ways
        if n_sets & (n_sets - 1):
            raise ConfigurationError(
                f"set-associative cache needs a power-of-two set count, got {n_sets}"
            )
        self.size_bytes = size_bytes
        self.line_size = line_size
        self._line_shift = line_size.bit_length() - 1
        self.ways = ways
        self.n_sets = n_sets
        # Each set is an LRU-ordered list of line numbers (MRU last).
        self._sets: list[list[int]] = [[] for _ in range(n_sets)]

    def reset(self) -> None:
        """Empty the cache (cold state)."""
        self._sets = [[] for _ in range(self.n_sets)]

    def access(self, addrs: np.ndarray) -> np.ndarray:
        """Simulate the address stream; returns a boolean hit mask.

        Exact: bit-identical to :meth:`access_reference`, including state
        carried across calls (each set's LRU list continues where the
        previous call left it).
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        if addrs.size == 0:
            return np.empty(0, dtype=bool)
        lines = addrs >> self._line_shift
        set_ids = lines & (self.n_sets - 1)
        order = np.argsort(set_ids, kind="stable")
        sorted_sets = set_ids[order]
        sorted_lines = lines[order]
        boundaries = np.nonzero(sorted_sets[1:] != sorted_sets[:-1])[0] + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [sorted_sets.size]))
        hits_sorted = np.empty(addrs.size, dtype=bool)
        ways = self.ways
        kernel = lru_kernel()
        if kernel is not None:
            # Serialise only the touched sets into a compact (runs, ways)
            # matrix, replay in compiled code, and write the LRU lists
            # back — the Python lists stay the canonical state so the
            # fallback path and access_reference stay interchangeable.
            touched = sorted_sets[starts].tolist()
            n_runs = starts.size
            state = np.zeros((n_runs, ways), dtype=np.int64)
            fill = np.zeros(n_runs, dtype=np.int64)
            for row, set_id in enumerate(touched):
                bucket = self._sets[set_id]
                if bucket:
                    fill[row] = len(bucket)
                    state[row, : len(bucket)] = bucket
            compact = np.repeat(np.arange(n_runs, dtype=np.int64), ends - starts)
            kernel(compact, sorted_lines, starts, ends, state, fill, ways, hits_sorted)
            for row, set_id in enumerate(touched):
                self._sets[set_id] = state[row, : fill[row]].tolist()
        else:
            for start, end in zip(starts.tolist(), ends.tolist()):
                bucket = self._sets[int(sorted_sets[start])]
                for offset, line in enumerate(sorted_lines[start:end].tolist(), start):
                    try:
                        bucket.remove(line)
                        hits_sorted[offset] = True
                    except ValueError:
                        hits_sorted[offset] = False
                        if len(bucket) >= ways:
                            bucket.pop(0)
                    bucket.append(line)
        hits = np.empty(addrs.size, dtype=bool)
        hits[order] = hits_sorted
        return hits

    def access_reference(self, addrs: np.ndarray) -> np.ndarray:
        """The naive per-access loop, kept as the parity oracle."""
        addrs = np.asarray(addrs, dtype=np.int64)
        hits = np.empty(addrs.size, dtype=bool)
        mask = self.n_sets - 1
        shift = self._line_shift
        sets = self._sets
        ways = self.ways
        for i, addr in enumerate(addrs):
            line = int(addr) >> shift
            bucket = sets[line & mask]
            try:
                bucket.remove(line)
                hits[i] = True
            except ValueError:
                hits[i] = False
                if len(bucket) >= ways:
                    bucket.pop(0)
            bucket.append(line)
        return hits


class WorkingSetCache:
    """LRU cache approximation via Denning's working-set model.

    A fully-associative LRU cache of C lines hits an access iff fewer than C
    *distinct* lines were touched since the previous access to the same line
    (the stack distance).  Computing exact stack distances is super-linear;
    the working-set model replaces them with plain reuse *time* gaps, using
    the identity that the average working-set size over windows of length W
    is ``s(W) = (1/T) * sum_i min(gap_i, W)`` (first occurrences count as
    W).  Solving ``s(W*) = C`` for the window W* and declaring a hit iff
    ``gap <= W*`` yields the classic LRU approximation.  :meth:`hit_mask`
    works in head space: only run heads are folded (one packed-key sort,
    :func:`_head_reuse_gaps`), the window is an exact integer solve over
    their gaps plus the gap-1 repeats (:func:`working_set_window`), and
    no per-access gap array is built (:func:`working_set_mask`).

    This captures what matters for the reproduction: streaming data hits
    only within a line (gap 1), hot vertices with short reuse gaps stay
    cached, and the cold tail misses — without per-access Python loops.
    It models a high-associativity LLC (the testbeds' 11-way L3), unlike
    :class:`DirectMappedCache` whose conflict misses evict hot lines under
    streaming pressure.

    The model is evaluated per run (one ``hit_mask`` call = one run, cold
    start), so runs are independent and deterministic.
    """

    def __init__(self, size_bytes: int, line_size: int = LINE_SIZE) -> None:
        n_lines = _check_geometry(size_bytes, line_size)
        self.size_bytes = size_bytes
        self.line_size = line_size
        self._line_shift = line_size.bit_length() - 1
        self.capacity_lines = n_lines

    def reset(self) -> None:
        """No-op: the model is stateless across runs."""

    def hit_mask(self, addrs: np.ndarray) -> np.ndarray:
        """Boolean hit mask for one full run's address stream."""
        addrs = np.asarray(addrs, dtype=np.int64)
        head_space = _head_reuse_gaps(addrs, self._line_shift)
        return working_set_mask(addrs.size, *head_space, self.capacity_lines)
