"""Broad phase: whole-box rules, and candidate box pairs as a stream.

The rules, :func:`penetration_span` (touching boxes count as apart) and
:func:`within_reach` (contact), say from two parts' boxes whether they can
meet, for one pair or, broadcast, for every pair by the same arithmetic.

Every query that pairs triangles with triangles (``queries.within_distance``,
``queries.min_distance``, ``queries.penetrates_along``) or probe lines with
triangles (``rays.ray_containment``) takes its candidates from
:func:`box_pairs`. The pairs come block by block in row-major order, so a
scan that stops at its first hit never builds the rest, and no dense box
test covers more than ``BLOCK_CELLS`` (box, box) cells, so memory follows
one block instead of the product of the two sides.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

# most (box, box) cells one dense overlap test covers; smaller budgets cost
# time on triangles in no spatial order, larger ones memory
BLOCK_CELLS = 1 << 15

# a range of more rows than this that exceeds BLOCK_CELLS is halved, and each
# half keeps only the columns that reach its bounding box; fewer rows run in
# plain slices, so that on triangles in no spatial order, where cropping
# removes nothing, it costs under 1/100 of the dense tests
SPLIT_ROWS = 1 << 8


def penetration_span(lo_s: np.ndarray, hi_s: np.ndarray, lo_m: np.ndarray, hi_m: np.ndarray,
                     axis: int, first: float, last: float) -> tuple[np.ndarray, np.ndarray]:
    """The penetration rule: the closed sub-range ``(lo, hi)`` of the signed
    offsets ``[first, last]`` at which the moving box ``[lo_m, hi_m]``,
    shifted along ``axis``, shares interior with the static box
    ``[lo_s, hi_s]`` strictly on every axis; ``(inf, -inf)`` where it does
    at none. Boxes are ``(..., 3)``, broadcast. As fl(a - b) = -fl(b - a)
    has the sign of a - b, the test across ``axis`` is exact, and swapping
    the boxes and taking ``[-last, -first]`` mirrors the span.

    Where the boxes share no interior, touching included, the solids in
    them cannot penetrate. A solid, like a triangle, lies in its box, so a
    point strictly inside both solids is interior to both boxes. A proper
    crossing of two triangles (``queries.proper_crossings``) meets the
    relative interior of both; a triangle on one side of a plane that meets
    it at such a point lies in it, so triangles whose boxes meet only in a
    slab of zero width could cross only coplanar, which is never a
    crossing. A shift along ``axis`` moves nothing across it, and shifted
    coordinates round monotonically.
    """
    t_lo, t_hi = lo_s - hi_m, hi_s - lo_m
    along = np.arange(3) == axis
    lo = np.maximum(t_lo, np.where(along, first, 0.0))
    hi = np.minimum(t_hi, np.where(along, last, 0.0))
    meet = ((t_lo < hi) & (lo < t_hi) & (lo <= hi)).all(axis=-1)
    return np.where(meet, lo[..., axis], np.inf), np.where(meet, hi[..., axis], -np.inf)


def padded(distance: float, *boxes: np.ndarray) -> np.ndarray:
    """``distance`` plus 1e-9 of (``distance`` + the largest coordinate
    magnitude of ``boxes``, broadcast), far above the distance kernel's
    rounding."""
    scale = np.abs(np.concatenate(np.broadcast_arrays(*boxes), axis=-1)).max(axis=-1)
    return distance + 1e-9 * (distance + scale)


def within_reach(lo_a: np.ndarray, hi_a: np.ndarray, lo_b: np.ndarray, hi_b: np.ndarray,
                 distance: float) -> np.ndarray:
    """The contact rule: whether the boxes ``[lo_a, hi_a]`` and
    ``[lo_b, hi_b]``, broadcast, come within :func:`padded` ``distance``
    on every axis, touching included; surfaces whose boxes do not are
    farther apart."""
    reach = padded(distance, lo_a, hi_a, lo_b, hi_b)[..., None]
    return ((lo_a - reach <= hi_b) & (lo_b - reach <= hi_a)).all(axis=-1)


def _reaching(lo: np.ndarray, hi: np.ndarray, box_lo: np.ndarray, box_hi: np.ndarray) -> np.ndarray:
    """Indices k of the boxes ``[lo[:, k], hi[:, k]]``, given axis-major as
    ``(3, n)``, that touch the box ``[box_lo, box_hi]``."""
    return np.flatnonzero(np.all((lo <= box_hi[:, None]) & (box_lo[:, None] <= hi), axis=0))


def _overlap(lo_a: np.ndarray, hi_a: np.ndarray, lo_b: np.ndarray, hi_b: np.ndarray) -> np.ndarray:
    """Dense ``(len(a), len(b))`` matrix: box ``a[i]`` touches box ``b[j]``.
    Side ``a`` is ``(n, 3)``; side ``b`` is axis-major ``(3, m)``, so that
    every comparison runs over contiguous rows."""
    overlap = lo_a[:, 0, None] <= hi_b[0]
    overlap &= lo_b[0] <= hi_a[:, 0, None]
    for ax in (1, 2):
        overlap &= lo_a[:, ax, None] <= hi_b[ax]
        overlap &= lo_b[ax] <= hi_a[:, ax, None]
    return overlap


def box_pairs(lo_a: np.ndarray, hi_a: np.ndarray, lo_b: np.ndarray, hi_b: np.ndarray,
              gap: float = 0.0) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Index pairs ``(i, j)`` whose boxes ``[lo_a[i], hi_a[i]]`` and
    ``[lo_b[j], hi_b[j]]`` overlap once inflated by ``gap`` mm on every axis
    (touching counts as overlap), yielded as ``(i, j)`` arrays block by
    block; concatenated, the blocks hold every such pair in row-major order.
    Boxes may be unbounded (infinite corners) as long as ``gap`` is finite.

    Each side is first cropped to the boxes that reach the other side's
    whole bounding box. A range of kept rows of ``a`` whose rows times
    columns exceed ``BLOCK_CELLS`` is halved while it has more than
    ``SPLIT_ROWS`` rows, and each half keeps the columns of ``b`` that reach
    its own bounding box; the rest run in dense tests of at most
    ``BLOCK_CELLS`` cells, a single row past that in slices of its columns.
    Every crop is exact, since lowering each corner by ``gap`` is monotone
    in floating point; the crops only shrink the dense tests.
    """
    if not len(lo_a) or not len(lo_b):
        return
    lo_a, lo_b = lo_a - gap, (lo_b - gap).T.copy()
    hi_b = hi_b.T.copy()
    rows = _reaching(lo_a.T, hi_a.T, lo_b.min(axis=1), hi_b.max(axis=1))
    cols = _reaching(lo_b, hi_b, lo_a.min(axis=0), hi_a.max(axis=0))
    pending = [(rows, cols)]
    while pending:
        rows, cols = pending.pop()
        # take keeps each axis contiguous, which lo_b[:, cols] would not
        lb, hb = np.take(lo_b, cols, axis=1), np.take(hi_b, cols, axis=1)
        if len(rows) > SPLIT_ROWS and len(rows) * len(cols) > BLOCK_CELLS:
            mid = len(rows) // 2
            for half in (rows[mid:], rows[:mid]):
                reach = _reaching(lb, hb, lo_a[half].min(axis=0), hi_a[half].max(axis=0))
                pending.append((half, cols[reach]))
            continue
        step = max(1, BLOCK_CELLS // max(len(cols), 1))
        for start in range(0, len(rows), step):
            r = rows[start:start + step]
            # more than one slice of columns only when one row exceeds the budget
            for c in range(0, len(cols), BLOCK_CELLS):
                s = slice(c, c + BLOCK_CELLS)
                hits = _overlap(lo_a[r], hi_a[r], lb[:, s], hb[:, s])
                i, j = np.divmod(np.flatnonzero(hits), hits.shape[1])
                if len(i):
                    yield r[i], cols[s][j]


def batches(blocks: Iterable[tuple[np.ndarray, ...]], first: int,
            last: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Re-cut a stream of blocks, each a tuple of equal-length arrays, into
    batches of ``first`` rows, doubling up to ``last``, in stream order; the
    final batch may be shorter. A block that holds a whole batch is sliced,
    not copied."""
    size, held, count = first, [], 0
    for block in blocks:
        held.append(block)
        count += len(block[0])
        while count >= size:
            joined = held[0] if len(held) == 1 else tuple(map(np.concatenate, zip(*held)))
            yield tuple(a[:size] for a in joined)
            held, count = [tuple(a[size:] for a in joined)], count - size
            size = min(2 * size, last)
    if count:
        yield held[0] if len(held) == 1 else tuple(map(np.concatenate, zip(*held)))


def gather(blocks: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of a :func:`box_pairs` stream, concatenated."""
    i, j = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for bi, bj in blocks:
        i.append(bi)
        j.append(bj)
    return np.concatenate(i), np.concatenate(j)
