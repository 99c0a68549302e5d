"""Streaming reuse folds: working-set hit masks within the worker budget.

:meth:`repro.sim.tracecache.TraceCache.hit_mask` computes every mask of
an in-budget trace with the direct
:meth:`repro.mem.cache.WorkingSetCache.hit_mask`.  A trace whose flat
address copy would spend more than a quarter of ``REPRO_WORKER_BYTES``
cannot take that route, so its mask comes from this module instead:
:func:`fold_reuse_chunks` folds the trace chunk by chunk into a
:class:`ReuseProfile`, and :meth:`ReuseProfile.hit_mask_for` answers the
LLC's mask from it.  The profile holds ``gaps`` — per-access reuse time
gaps in program order (the output of
:func:`repro.mem.cache.reuse_time_gaps`, with
:data:`repro.mem.cache.GAP_COLD` marking first occurrences) — plus,
while the stream stays dense, the fold's last-seen table so the next
chunk arrives by :meth:`ReuseProfile.extend` instead of a refold.

Bit-exactness is the contract: :meth:`ReuseProfile.hit_mask` reads the
run heads (gap not 1) off its gaps and runs the *same* head-space solve
and compare as ``WorkingSetCache.hit_mask``
(:func:`repro.mem.cache.working_set_mask`), and a chunked fold equals
the one-shot fold of the concatenated stream.
``REPRO_VERIFY_REUSE=1`` re-checks the second half at runtime: every
chained streaming fold is compared with a one-shot refold
(``reuse.parity_checks`` / ``reuse.parity_failures``, :class:`TraceError`
on divergence).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.errors import TraceError
from repro.mem.cache import (
    GAP_COLD,
    LINE_SIZE,
    VERIFY_REUSE_ENV,
    WorkingSetCache,
    dense_table_span,
    reuse_time_gaps,
    working_set_mask,
)
from repro.obs.metrics import process_metrics


def derivable(llc) -> bool:
    """Whether ``llc``'s hit masks can be derived from a reuse profile.

    Exactly :class:`WorkingSetCache` (not a subclass — a subclass could
    override ``hit_mask`` and break the bit-exactness contract).  The
    direct-mapped and set-associative simulators model conflict misses,
    which reuse gaps cannot see.
    """
    return type(llc) is WorkingSetCache


@dataclass
class ReuseProfile:
    """Per-access reuse gaps of one address stream.

    ``_fold_state`` optionally carries the fold's dense last-seen table
    (``(base_line, table)``, global stream positions, ``-1`` = never
    seen) so :meth:`extend` can fold *only* the next chunk's addresses
    and merge, instead of refolding the whole stream.
    """

    gaps: np.ndarray  # int64 [n], program order; GAP_COLD = first touch
    line_size: int = LINE_SIZE
    _fold_state: tuple[int, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def n(self) -> int:
        """Accesses described by this profile."""
        return int(self.gaps.size)

    # ------------------------------------------------------------------
    # incremental phase extension
    # ------------------------------------------------------------------
    @property
    def can_extend(self) -> bool:
        """Whether this profile carries fold state for :meth:`extend`."""
        return self._fold_state is not None

    def extend(self, delta_addrs: np.ndarray) -> "ReuseProfile":
        """A new profile covering this stream plus ``delta_addrs``.

        Folds **only the delta**: intra-delta gaps come from one fold
        over the delta alone (gap = position difference, invariant under
        the shared ``base_n`` offset), delta accesses whose line was
        last seen in the base stream are patched from the carried
        last-seen table — bit-identical to the fold of the
        concatenation.  The base profile is never mutated; the result
        carries its own forwarded table so extensions chain chunk after
        chunk.

        Raises :class:`TraceError` when the profile has no fold state —
        callers should check :attr:`can_extend` and fall back to a full
        refold.
        """
        if self._fold_state is None:
            raise TraceError(
                "reuse profile carries no fold state; refold instead"
            )
        addrs = np.ascontiguousarray(delta_addrs, dtype=np.int64)
        if addrs.size == 0:
            return ReuseProfile(
                gaps=self.gaps,
                line_size=self.line_size,
                _fold_state=self._fold_state,
            )
        shift = int(self.line_size).bit_length() - 1
        lines = addrs >> shift
        base_n = self.n
        base_line, table = self._fold_state
        # Intra-delta gaps; GAP_COLD marks first-in-delta touches.
        delta_gaps = reuse_time_gaps(addrs, shift)
        cold = np.nonzero(delta_gaps == GAP_COLD)[0]
        if cold.size:
            idx = lines[cold] - base_line
            in_range = (idx >= 0) & (idx < table.size)
            prev = np.full(cold.size, -1, dtype=np.int64)
            prev[in_range] = table[idx[in_range]]
            seen = prev >= 0
            delta_gaps[cold[seen]] = base_n + cold[seen] - prev[seen]
        return ReuseProfile(
            gaps=np.concatenate([np.asarray(self.gaps), delta_gaps]),
            line_size=self.line_size,
            _fold_state=self._forwarded_state(lines, base_n),
        )

    def _forwarded_state(
        self, lines: np.ndarray, base_n: int
    ) -> tuple[int, np.ndarray] | None:
        """The last-seen table grown over the delta's lines (a copy)."""
        base_line, table = self._fold_state
        new_base = min(base_line, int(lines.min()))
        new_top = max(base_line + table.size, int(lines.max()) + 1)
        if new_top - new_base > max(1024, 8 * (base_n + lines.size)):
            return None  # delta too sparse: stop chaining, keep correctness
        new_table = np.full(new_top - new_base, -1, dtype=np.int64)
        offset = base_line - new_base
        new_table[offset : offset + table.size] = table
        np.maximum.at(
            new_table,
            lines - new_base,
            np.arange(base_n, base_n + lines.size),
        )
        return new_base, new_table

    # ------------------------------------------------------------------
    # derived masks
    # ------------------------------------------------------------------
    def hit_mask(self, capacity_lines: int) -> np.ndarray:
        """Boolean hit mask for a working-set LLC of ``capacity_lines``.

        Bit-exact with :meth:`WorkingSetCache.hit_mask` on the same
        address stream: the same head-space solve and compares.
        """
        positions = np.flatnonzero(self.gaps != 1)
        return working_set_mask(
            self.n, positions, self.gaps[positions], capacity_lines
        )

    def hit_mask_for(self, llc) -> np.ndarray:
        """Derive ``llc.hit_mask(...)`` without touching the trace.

        Raises :class:`TraceError` when ``llc`` is not a plain
        :class:`WorkingSetCache` or uses a different line granularity —
        callers must fall back to the direct simulation then.
        """
        if not derivable(llc):
            raise TraceError(
                f"cannot derive {type(llc).__name__} masks from a reuse profile"
            )
        if llc.line_size != self.line_size:
            raise TraceError(
                f"reuse profile built at line size {self.line_size}, "
                f"LLC uses {llc.line_size}"
            )
        return self.hit_mask(llc.capacity_lines)


def _fold_state_of(lines: np.ndarray) -> tuple[int, np.ndarray] | None:
    """The dense last-seen table after folding ``lines``, or ``None``.

    Built vectorised (``np.maximum.at`` keeps the *latest* position per
    line slot) so the state exists even when the fold itself ran without
    the kernel — extendability does not depend on numba.  ``None`` when
    the stream is too sparse for a dense table.
    """
    geometry = dense_table_span(lines)
    if geometry is None:
        return None
    base, span = geometry
    table = np.full(span, -1, dtype=np.int64)
    np.maximum.at(
        table, lines - base, np.arange(lines.size, dtype=np.int64)
    )
    return base, table


def build_reuse_profile(
    addrs: np.ndarray, line_size: int = LINE_SIZE, *, with_state: bool = True
) -> ReuseProfile:
    """Fold one address stream into a :class:`ReuseProfile`.

    One linear fold (see :func:`repro.mem.cache.reuse_time_gaps`).
    With ``with_state`` (the default) the profile also carries
    the fold's last-seen table so later chunks can
    :meth:`~ReuseProfile.extend` it; pass ``False`` for one-shot folds
    that will never grow (saves the table's memory).
    """
    if line_size <= 0 or line_size & (line_size - 1):
        raise TraceError(f"line size must be a power of two, got {line_size}")
    addrs = np.asarray(addrs, dtype=np.int64)
    shift = line_size.bit_length() - 1
    gaps = reuse_time_gaps(addrs, shift)
    state = None
    if with_state and addrs.size:
        state = _fold_state_of(addrs >> shift)
    return ReuseProfile(
        gaps=gaps,
        line_size=line_size,
        _fold_state=state,
    )


def fold_reuse_chunks(
    chunks, line_size: int = LINE_SIZE
) -> ReuseProfile:
    """Fold an address stream delivered in program-order chunks.

    The streaming twin of :func:`build_reuse_profile`: the first
    non-empty chunk seeds the profile and every later chunk arrives via
    :meth:`ReuseProfile.extend` — bit-identical to the one-shot fold of
    the concatenation (extend's contract), without ever materialising
    the flat stream.  When a chunk is too sparse for the dense last-seen
    table the chain stops carrying state (:attr:`~ReuseProfile.
    can_extend` goes false) and the fold falls back to concatenating the
    chunks seen so far and refolding once — correctness over memory in
    the pathological case.  Chunks are retained as views, so the
    streaming path allocates nothing beyond the fold's own rows.

    ``REPRO_VERIFY_REUSE=1`` arms the parity oracle: a chained fold is
    compared with the one-shot refold of the concatenated chunks.
    """
    profile: ReuseProfile | None = None
    seen: list[np.ndarray] = []
    chained = True
    for chunk in chunks:
        chunk = np.ascontiguousarray(chunk, dtype=np.int64)
        if chunk.size == 0:
            continue
        seen.append(chunk)
        if not chained:
            continue
        if profile is None:
            profile = build_reuse_profile(chunk, line_size)
        elif profile.can_extend:
            profile = profile.extend(chunk)
        else:
            chained = False
    if not seen:
        return build_reuse_profile(np.empty(0, dtype=np.int64), line_size)
    if not chained:
        return build_reuse_profile(np.concatenate(seen), line_size)
    if os.environ.get(VERIFY_REUSE_ENV):
        _verify_streamed(profile, seen, line_size)
    return profile


def _verify_streamed(
    streamed: ReuseProfile, chunks: list[np.ndarray], line_size: int
) -> None:
    """The streaming parity oracle: a one-shot refold must agree bit-for-bit."""
    registry = process_metrics()
    registry.inc("reuse.parity_checks")
    direct = build_reuse_profile(
        np.concatenate(chunks), line_size, with_state=False
    )
    if not np.array_equal(streamed.gaps, direct.gaps):
        registry.inc("reuse.parity_failures")
        raise TraceError(
            "streamed reuse fold diverged from the one-shot refold"
        )
