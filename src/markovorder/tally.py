"""Window counts of a path, tallied as its symbols are handed on.

``sampled_counts`` gives the counts of ``sample_paths(model, n, seed)[0]``
from one run of the blocked sampler whose runs of steps are counted as
they come, so the path is never held; ``counts.prefix_counts`` hands a
path in order to the same tally as one block.  It codes windows with
``_contexts`` and merges them with ``counts._merge``.  It is a module of
its own so that ``counts`` stays free of the sampler; also, without cached
bytecode, the commands peaked higher in RSS with this code inside
``counts``.
"""

from __future__ import annotations

import numpy as np

from ._contexts import CODE_CHUNK, _horner, block_digits, symbol_dtype
from .counts import ContextCounts, _merge, _merge_pairs
from .model import _blocking, _lane_tables, _sample_run


class _WindowTally:
    """The window counts of one lane's path, taken as the blocked sampler
    hands it on (``model._sample_run``): runs of steps a, a + 1, .. of every
    block, step-major, first those from the first pass's coalescence step
    on, then those the second pass replays before it.

    Kernel step t of block b is global step g = b * length + t, at path
    position r + 1 + g; the initial block's r symbols are the steps -r..-1.
    A window whose symbols all lie in one pass of one block is counted with
    the run that holds its end: each block's last ``cap`` symbols of a pass
    carry over to its next run.  The others end within ``cap`` steps of a
    block's start or of the first pass's start; they are counted once the
    replay has run, from strips of the steps around those starts, filled as
    the runs pass, as are strips of the path's first ``cap`` symbols and of
    the ``cap`` before each length.  A window counts towards the first
    length it ends within (``_tally``).  A path in order is the one-block
    case: no initial block, the last length as the block length, and the
    path's pieces as the runs of one pass (``counts.prefix_counts``).
    """

    def __init__(self, m: int, cap: int, lengths, digits, blocks: int, length: int):
        if m < 2:
            raise ValueError(f"alphabet size m must be >= 2, got {m}")
        if m ** (cap + 1) >= 2**63:
            raise ValueError(f"depth cap {cap}: {m}**{cap + 1} window codes overflow int64")
        if cap >= lengths[0]:
            raise ValueError(f"depth cap {cap} must be < path length {lengths[0]}")
        self.m, self.cap, self.size = m, cap, m ** (cap + 1)
        self.digits, self.r = digits, digits.shape[0]
        self.blocks, self.length = blocks, max(length, 1)  # no steps at all when 0
        self.lengths = lengths
        # the global steps where the windows of each length start and end
        self.cuts = [cap - self.r] + [n - self.r for n in lengths]
        none = np.zeros(0, dtype=np.int64)
        self.groups = [[(none, none)] for _ in lengths]
        self.fresh = [0] * len(lengths)  # entries not yet merged, per group
        self.strips = []
        self.seam = self._strip(-cap, cap + min(cap, length), blocks)
        self.head = self._strip(-self.r, cap, 1)
        self.tails = [self._strip(c - cap, cap, 1) for c in self.cuts[1:]]
        self.first = self.mid = self.carry = self.next = None

    def _strip(self, off: int, rows: int, cols: int) -> np.ndarray:
        """A step-major (rows, cols) array whose row j of column b holds
        global step b * length + off + j: the initial block's symbols now,
        the others as runs bring them (``_fill``)."""
        strip = np.zeros((rows, cols), dtype=self.digits.dtype)
        # the columns whose first steps lie before step 0
        early = min(cols, max(0, -(off // self.length)))
        g = np.arange(early) * self.length + off + np.arange(rows)[:, None]
        held = (g < 0) & (g >= -self.r)
        strip[:, :early][held] = self.digits[g[held] + self.r]
        self.strips.append((off, strip))
        return strip

    def _fill(self, off: int, strip: np.ndarray, run: np.ndarray, a: int) -> None:
        """Copy into ``strip`` (see ``_strip``) what it holds of ``run``:
        for each block shift d of its rows, a slab of rows and blocks."""
        length, (k, blocks), (rows, cols) = self.length, run.shape, strip.shape
        for d in range(off // length, (off + rows - 1) // length + 1):
            lo, hi = max(off, d * length + a), min(off + rows, d * length + a + k)
            b0, b1 = max(d, 0), min(cols + d, blocks)
            if lo < hi and b0 < b1:
                at = d * length + a
                strip[lo - off : hi - off, b0 - d : b1 - d] = run[lo - at : hi - at, b0:b1]

    def store(self, run: np.ndarray, a: int) -> None:
        """Take the (k, blocks) ``run`` of steps a..a + k - 1 of every block,
        which is overwritten once this returns."""
        cap = self.cap
        if a != self.next:  # a pass starts: none of its windows reaches before it
            if self.next is None and a:  # the first pass, from its coalescence step
                self.first = a
                self.mid = self._strip(a - cap, cap + min(cap, self.length - a), self.blocks)
            self.carry = run[:0]
        for off, strip in self.strips:
            self._fill(off, strip, run, a)
        span = np.concatenate([self.carry, run])
        self._tally(span, a - self.carry.shape[0] + cap)
        self.carry = span[max(span.shape[0] - cap, 0) :].copy()
        self.next = a + run.shape[0]

    def _tally(self, strip: np.ndarray, t: int, stride: int = 0) -> None:
        """Count the windows of the step-major ``strip``: the one ending at
        its row cap + i of column b ends at global step b * stride + t + i
        (stride: the block length).  Read column after column they run in
        path order, so the windows of each length are one range of them,
        coded and merged CODE_CHUNK at a time."""
        cap, stride = self.cap, stride or self.length
        width, cols = strip.shape[0] - cap, strip.shape[1]
        if width <= 0:
            return

        def before(c):  # the windows that end before global step c
            q, rest = divmod(c - t, stride)
            return min(max(q, 0), cols) * width + (min(rest, width) if 0 <= q < cols else 0)

        edges = [before(c) for c in self.cuts]
        per = max(1, CODE_CHUNK // width)
        end = -(-edges[-1] // width)
        for j in range(edges[0] // width, end, per):
            codes = _horner(strip[:, j : min(j + per, end)].T, cap + 1, self.m)
            q0, q1 = j * width, j * width + codes.size
            parts = [
                (k, max(lo, q0) - q0, min(hi, q1) - q0)
                for k, (lo, hi) in enumerate(zip(edges, edges[1:]))
                if max(lo, q0) < min(hi, q1)
            ]
            # codes all of one part are read in memory order, others in path order
            whole = parts == [(parts[0][0], 0, codes.size)]
            flat = codes.ravel("K") if whole else codes.reshape(-1)
            for k, lo, hi in parts:
                self._add(k, flat[lo:hi])

    def _add(self, k: int, codes: np.ndarray) -> None:
        """Tally ``codes`` into group k, whose tallies are merged once the
        unmerged entries outnumber the merged ones."""
        pairs = self.groups[k]
        pairs.append(_merge(codes, None, self.size))
        self.fresh[k] += pairs[-1][0].shape[0]
        if self.fresh[k] >= pairs[0][0].shape[0]:
            self.groups[k] = [_merge_pairs(pairs, self.size)]
            self.fresh[k] = 0

    def counts(self):
        """Yield the counts at every length, once the run is done: the
        windows around the block starts and the first pass's start, and
        those inside the initial block, are counted first."""
        cap, length = self.cap, self.length
        self._tally(self.seam, 0)
        if self.first is not None:
            lo, hi = max(self.first, cap), min(self.first + cap, length)
            if lo < hi:
                self._tally(self.mid[lo - self.first : hi - self.first + cap], lo)
        if self.r > cap:
            self._tally(self.digits[:, None], cap - self.r, self.r)
        total = (np.zeros(0, dtype=np.int64),) * 2
        for k, n in enumerate(self.lengths):
            total = _merge_pairs([total, *self.groups[k]], self.size)
            yield ContextCounts(self.m, cap, n, *total, self.head[:, 0], self.tails[k][:, 0])


def sampled_counts(model, seed, lengths, depth_cap: int):
    """Yield the counts of the prefixes x_{1:n} of the path
    ``sample_paths(model, lengths[-1], seed)[0]`` for the increasing
    ``lengths``: those ``prefix_counts`` gives on that path, from one
    sampler run whose runs of steps are tallied as they come
    (``_WindowTally``), so no array as long as the path is held.
    """
    m, r = model.m, model.order
    tables, init = _lane_tables(model, seed)
    blocks, length = _blocking(model, 1, max(lengths[-1] - r, 0))
    digits = block_digits(init, r, m)[0].astype(symbol_dtype(m))
    tally = _WindowTally(m, depth_cap, lengths, digits, blocks, length)
    _sample_run(model, tables, init, blocks, length, tally.store)
    yield from tally.counts()
