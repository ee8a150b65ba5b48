"""Fillings of straight and skew shapes: validation, enumeration, weights."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from operator import le, lt, sub
from typing import Iterable, Iterator, Sequence

from .partitions import InvalidBoxError, Partition, SkewShape, _count, _ints, _is_one_to_n, _typed


class EntryExceedsBoundError(ValueError):
    """Filling holds an entry above the requested variable bound."""


def _shifts(inner: Partition, nrows: int) -> Iterator[tuple[int, int]]:
    """``(r, shift)`` for each row r >= 1: entry j of row r - 1 sits above entry j + shift of row r.

    Rows r - 1 and r share columns inner[r - 1] (>= inner[r]) up to
    outer[r] (<= outer[r - 1]), so row r's slice from ``shift`` lines up
    with row r - 1, and a zip of the two stops at the last shared column.
    """
    parts = inner.parts
    return zip(range(1, nrows), map(sub, chain(parts, repeat(0)), chain(parts[1:], repeat(0))))


@dataclass(frozen=True)
class Filling:
    """One positive integer per box of a (possibly skew) shape.

    ``rows[r]`` lists the entries of row ``r`` left to right, covering
    only the boxes actually present, so its length is
    ``outer[r] - inner[r]``. Straight shapes are the ``inner = empty``
    case.
    """

    shape: SkewShape
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _typed("shape", self.shape, SkewShape)
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        outer, inner = self.shape.outer, self.shape.inner
        if len(rows) != outer.nrows:
            raise ValueError(f"expected {outer.nrows} rows for {self.shape}, got {len(rows)}")
        widths = tuple(map(sub, outer.parts, chain(inner.parts, repeat(0)))) if inner.parts else outer.parts
        if tuple(map(len, rows)) != widths:  # walk to the first fault in order: each row's length, then its entries
            for r, (row, want) in enumerate(zip(rows, widths)):
                if len(row) != want:
                    raise ValueError(f"row {r} of {self.shape} needs {want} entries, got {len(row)}")
                _ints("entry", row, 1)
        _ints("entry", chain.from_iterable(rows), 1)

    @classmethod
    def _trusted(cls, shape: SkewShape, rows: tuple[tuple[int, ...], ...]) -> "Filling":
        # internal: rows already a tuple of int tuples, positive, lengths matching shape
        filling = object.__new__(cls)
        object.__setattr__(filling, "shape", shape)
        object.__setattr__(filling, "rows", rows)
        return filling

    @classmethod
    def from_rows(
        cls, rows: Iterable[Iterable[int]], inner: Partition | Iterable[int] = ()
    ) -> "Filling":
        """Build a filling from per-row entry lists, inferring the outer shape.

        Rows past the given ones, down to the inner shape's last row, hold
        no boxes: ``from_rows([], inner=[1])`` is the empty filling of (1)/(1).
        """
        inner_p = inner if isinstance(inner, Partition) else Partition(tuple(inner))
        rows_t = tuple(tuple(row) for row in rows)
        rows_t += ((),) * (inner_p.nrows - len(rows_t))
        outer = Partition(tuple(inner_p.part(r) + len(row) for r, row in enumerate(rows_t)))
        return cls(SkewShape(outer, inner_p), rows_t)

    def __str__(self):
        return self.to_ascii()

    def entry(self, row: int, col: int) -> int:
        """Entry at absolute coordinate (row, col); an absent box raises :class:`InvalidBoxError`."""
        lo, hi = self.shape.row_span(row)
        if not lo <= _count("col", col, None) < hi:
            raise InvalidBoxError(f"box ({row}, {col}) is not in {self.shape}")
        return self.rows[row][col - lo]

    def is_semistandard(self) -> bool:
        """Rows weakly increase left to right; columns strictly increase downward.

        Columns are checked one pair of adjacent rows at a time, on the
        slices over their shared columns.
        """
        rows = self.rows
        for row in rows:
            if not all(map(le, row, row[1:])):
                return False
        for r, shift in _shifts(self.shape.inner, len(rows)):
            if not all(map(lt, rows[r - 1], rows[r][shift:])):
                return False
        return True

    def is_standard(self) -> bool:
        """Semistandard and using each of 1..n exactly once."""
        return _is_one_to_n(chain.from_iterable(self.rows), self.shape.size) and self.is_semistandard()

    def weight(self, bound: int) -> tuple[int, ...]:
        """Multiplicity vector of width ``bound``: slot i-1 counts the i's."""
        counts = [0] * _count("bound", bound)
        for row in self.rows:
            for v in row:
                if v > bound:
                    raise EntryExceedsBoundError(f"entry {v} exceeds bound {bound}")
                counts[v - 1] += 1
        return tuple(counts)

    def to_ascii(self) -> str:
        """One line per row, entries space-separated, inner boxes drawn as ``.``."""
        lines = [" ".join(map(str, row)) for row in self.rows]
        for r, k in enumerate(self.shape.inner.parts):
            lines[r] = (". " * k + lines[r]).rstrip()
        return "\n".join(lines)


def _leaves(
    cap: Sequence[int], side: Sequence[int], up: Sequence[int], budget: Sequence[int], reverse: bool = False
) -> Iterator[list[int]]:
    """The one tableau search: a leaf per filling of the boxes the tables describe.

    Box ``k`` is ``values[k + 1]``; ``values[0]`` holds 0 and
    ``values[-1]`` the largest value, ``len(budget) - 1``, which is what
    a missing neighbour's slot reads. Box ``k`` tries v from
    values[up[k]] + 1 up to cap[k], and takes v while fewer than
    ``budget[v]`` v's are placed. In reading order (see :func:`_search`)
    v also starts no lower than its side neighbour, values[side[k]]; with
    ``reverse`` it stops at that neighbour instead, and v is taken only
    while fewer v's than (v - 1)'s are placed, the lattice condition. At
    each leaf the same list is yielded again, so a consumer reads it
    before resuming. Leaves arrive in lexicographic order of the values in
    box order. State is plain integers, and the loop backtracks by box
    index, so the depth is not bounded by Python recursion.
    """
    n = len(cap)
    values = [0] * (n + 2)
    values[-1] = len(budget) - 1
    if not n:
        yield values
        return
    counts = [0] * len(budget)
    counts[0] = n  # slot 0 never runs short, so 1 is always lattice
    gate = counts if reverse else budget  # v is taken while counts[v] < gate[v - 1]
    k, v = 0, 1  # box k tries values from v on; box 0 has no neighbours
    while True:
        hi = cap[k]
        if reverse:
            bound = values[side[k]]
            if bound < hi:
                hi = bound
        while v <= hi:
            c = counts[v]
            if c < budget[v] and c < gate[v - 1]:
                break
            v += 1
        else:  # box k is exhausted: step back and move box k - 1 to its next value
            if not k:
                return
            v = values[k]
            counts[v] -= 1
            k -= 1
            v += 1
            continue
        counts[v] = c + 1
        k += 1
        values[k] = v
        if k < n:
            v = values[up[k]] + 1
            if not reverse:
                lo = values[side[k]]
                if lo > v:
                    v = lo
        else:
            yield values
            counts[v] = c
            k -= 1
            v += 1


def _search(
    outer: Sequence[int],
    inner: Sequence[int],
    rows: Sequence[int],
    cols: Sequence[int],
    budget: Sequence[int],
    reverse: bool = False,
) -> Iterator[list[int]]:
    """:func:`_leaves` over the boxes of outer/inner, with the tables built here.

    Rows are taken from the top, each left to right (reading order), or
    right to left with ``reverse`` (reverse reading order). The box in
    row r and column c is capped at ``rows[r] - cols[c]``, and a column
    past the end of ``cols`` has the term 0. Its side neighbour is the
    box before it in its row, slot 0 (the value 0) in reading order or
    slot -1 (the largest value) in reverse when it has none, and its
    upper neighbour the box above it, slot 0 when it has none.
    """
    # slot of the last box filled in each column: the box above, since skew columns are contiguous
    last = [0] * (outer[0] if outer else 0)
    cap: list[int] = []
    side: list[int] = []
    up: list[int] = []
    edge, wide = -1 if reverse else 0, len(cols)
    for r, hi in enumerate(outer):
        lo = inner[r] if r < len(inner) else 0
        t, prev = rows[r], edge
        for c in range(hi - 1, lo - 1, -1) if reverse else range(lo, hi):
            cap.append(t - cols[c] if c < wide else t)
            side.append(prev)
            up.append(last[c])
            last[c] = prev = len(cap)
    return _leaves(cap, side, up, budget, reverse)


def _cut(skew: SkewShape, leaves: Iterator[list[int]], reverse: bool = False) -> Iterator[Filling]:
    """One filling of ``skew`` per leaf of :func:`_leaves`, its slots cut into rows.

    The search took the boxes row by row from the top, each row left to
    right, or right to left with ``reverse`` (reverse reading order).
    """
    rows: list[slice] = []
    end = 0
    for lo, hi in zip(chain(skew.inner.parts, repeat(0)), skew.outer.parts):
        start, end = end, end + hi - lo
        # boxes start..end-1 of the search order are slots start+1..end
        rows.append(slice(end, start, -1) if reverse else slice(start + 1, end + 1))
    return (Filling._trusted(skew, tuple([tuple(values[s]) for s in rows])) for values in leaves)


def enumerate_ssyt(shape: Partition | SkewShape, bound: int) -> Iterator[Filling]:
    """All semistandard fillings of ``shape`` with entries in 1..bound.

    Searches boxes in row-reading order with per-box lower bounds
    (left neighbor, upper neighbor plus one) and caps (``bound`` less the
    boxes below in the column), so fillings arrive in lexicographic order
    of their reading word, the iterator is lazy, and memory stays
    proportional to the number of boxes plus the bound.
    """
    _typed("shape", shape, Partition, SkewShape)
    _count("entry bound", bound)
    skew = shape if isinstance(shape, SkewShape) else shape.as_skew()
    outer = skew.outer.parts
    n = skew.size  # a budget of n never binds; no boxes need no values, whatever the bound
    # bound less the boxes below: (bound + 1 + r) - outer'[c]
    rows = range(bound + 1, bound + 1 + len(outer))
    leaves = _search(outer, skew.inner.parts, rows, skew.outer.conjugate().parts, [n] * (bound + 1 if n else 1))
    return _cut(skew, leaves)


def enumerate_syt(shape: Partition) -> Iterator[Filling]:
    """All standard fillings of a straight shape, lexicographic by reading word.

    Same reading-order search as :func:`enumerate_ssyt`, with each
    value used exactly once and entries capped by how many larger values
    the boxes to the right and below still need.
    """
    _typed("shape", shape, Partition)
    n, parts = shape.size, shape.parts
    # the other hook - 1 boxes of a box's hook hold larger values, so its entry is at most
    # n + 1 - hook = (n + 2 + r - shape[r]) - (shape'[c] - c)
    rows = [n + 2 + r - p for r, p in enumerate(parts)]
    cols = [h - c for c, h in enumerate(shape.conjugate().parts)]
    return _cut(shape.as_skew(), _search(parts, (), rows, cols, [1] * (n + 1)))


def bender_knuth(filling: Filling, index: int) -> Filling:
    """Involution swapping the multiplicities of ``index`` and ``index + 1``.

    An entry equal to ``index`` is free when no ``index + 1`` sits
    directly below it; an ``index + 1`` is free when no ``index`` sits
    directly above. Within each row the free small entries form a run
    immediately followed by the free large ones; a run of ``a`` small
    and ``b`` large becomes ``b`` small and ``a`` large. Everything else
    stays put, so applying the operation twice returns the input.
    """
    _typed("filling", filling, Filling)
    _count("index", index, 1)
    if not filling.is_semistandard():
        raise ValueError("operation is only defined on semistandard fillings")
    small, large = index, index + 1
    rows = filling.rows
    marks = [list(row) for row in rows]  # a small over a large, and that large, are marked 0: not free
    for r, shift in _shifts(filling.shape.inner, len(rows)):
        for j, (above, below) in enumerate(zip(rows[r - 1], rows[r][shift:])):
            if above == small and below == large:
                marks[r - 1][j] = marks[r][j + shift] = 0
    new_rows = []
    for row, free in zip(rows, marks):
        slots = [j for j, v in enumerate(free) if v == small or v == large]  # small entries sit left of large ones
        flip = free.count(large)
        new_row = list(row)
        for pos, j in enumerate(slots):
            new_row[j] = small if pos < flip else large
        new_rows.append(tuple(new_row))
    return Filling(filling.shape, tuple(new_rows))
