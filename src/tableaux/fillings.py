"""Fillings of straight and skew shapes: validation, enumeration, weights."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .partitions import Partition, SkewShape


class EntryExceedsBoundError(ValueError):
    """Filling holds an entry above the requested variable bound."""


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
        rows = tuple(tuple(row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        outer, inner = self.shape.outer, self.shape.inner
        if len(rows) != outer.nrows:
            raise ValueError(f"expected {outer.nrows} rows for {self.shape}, got {len(rows)}")
        for r, row in enumerate(rows):
            want = outer.part(r) - inner.part(r)
            if len(row) != want:
                raise ValueError(f"row {r} of {self.shape} needs {want} entries, got {len(row)}")
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                    raise ValueError(f"entries must be positive integers, got {v!r}")

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
        """Build a filling from per-row entry lists, inferring the outer shape."""
        inner_p = inner if isinstance(inner, Partition) else Partition(tuple(inner))
        rows_t = tuple(tuple(row) for row in rows)
        outer = Partition(tuple(inner_p.part(r) + len(row) for r, row in enumerate(rows_t)))
        return cls(SkewShape(outer, inner_p), rows_t)

    def __str__(self):
        return self.to_ascii()

    def entry(self, row: int, col: int) -> int:
        """Entry at absolute coordinate (row, col); the box must be present."""
        return self.rows[row][col - self.shape.inner.part(row)]

    def is_semistandard(self) -> bool:
        """Rows weakly increase left to right; columns strictly increase downward.

        Columns are checked one pair of adjacent rows at a time, on the
        slices over their shared columns.
        """
        rows = self.rows
        for row in rows:
            for a, b in zip(row, row[1:]):
                if a > b:
                    return False
        inner = self.shape.inner
        for r in range(1, len(rows)):
            # rows r-1 and r share columns inner[r-1] (>= inner[r]) up to outer[r] (<= outer[r-1]),
            # so the slice of row r starts that many boxes in and zip stops at the shorter one
            for a, b in zip(rows[r - 1], rows[r][inner.part(r - 1) - inner.part(r):]):
                if a >= b:
                    return False
        return True

    def is_standard(self) -> bool:
        """Semistandard and using each of 1..n exactly once."""
        entries = sorted(v for row in self.rows for v in row)
        return entries == list(range(1, self.shape.size + 1)) and self.is_semistandard()

    def weight(self, bound: int) -> tuple[int, ...]:
        """Multiplicity vector of width ``bound``: slot i-1 counts the i's."""
        counts = [0] * bound
        for row in self.rows:
            for v in row:
                if v > bound:
                    raise EntryExceedsBoundError(f"entry {v} exceeds bound {bound}")
                counts[v - 1] += 1
        return tuple(counts)

    def to_ascii(self) -> str:
        """One line per row, entries space-separated, inner boxes drawn as ``.``."""
        lines = []
        for r, row in enumerate(self.rows):
            cells = ["."] * self.shape.inner.part(r) + [str(v) for v in row]
            lines.append(" ".join(cells))
        return "\n".join(lines)


def _as_skew(shape: Partition | SkewShape) -> SkewShape:
    return shape if isinstance(shape, SkewShape) else shape.as_skew()


def _search(
    skew: SkewShape, candidates: Callable[[int, int, int], Iterator[int]]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Rows of every filling of ``skew`` built from the values ``candidates`` offers.

    Boxes are filled in reading order: rows from the top, each left to
    right. Box ``k`` of that order asks ``candidates(k, left, up)`` for
    an iterator of values to try, where ``left`` is the value of its left
    neighbour and ``up`` that of the box above it, each 0 when that box
    is absent. The search keeps the iterator of each filled box in a
    list indexed by box, so its depth is not bounded by Python recursion.
    A callback that keeps state updates it just before each value it
    yields and restores it when resumed.
    """
    outer, inner = skew.outer.parts, skew.inner.parts
    # slot of the last box filled in each column: the box above, since skew columns are contiguous
    last = [0] * (outer[0] if outer else 0)
    left: list[int] = []
    up: list[int] = []
    rows: list[slice] = []
    for r, hi in enumerate(outer):
        start, prev = len(left), 0
        for c in range(inner[r] if r < len(inner) else 0, hi):
            left.append(prev)
            up.append(last[c])
            last[c] = prev = len(left)
        rows.append(slice(start + 1, len(left) + 1))
    n = len(left)
    values = [0] * (n + 1)  # box k is values[k + 1]; values[0] stays 0 for absent neighbors
    its: list[Iterator[int]] = [iter(())] * n  # its[k] offers the values for box k
    k = 0  # boxes holding a value, which is also the next box to fill
    while True:
        if k < n:
            its[k] = candidates(k, values[left[k]], values[up[k]])
            k += 1
        else:
            yield tuple([tuple(values[s]) for s in rows])
        while k:
            v = next(its[k - 1], 0)
            if v:
                values[k] = v
                break
            k -= 1
        else:
            return


def enumerate_ssyt(shape: Partition | SkewShape, bound: int) -> Iterator[Filling]:
    """All semistandard fillings of ``shape`` with entries in 1..bound.

    Searches boxes in row-reading order with per-box lower bounds
    (left neighbor, upper neighbor plus one), so fillings arrive in
    lexicographic order of their reading word, the iterator is lazy, and
    memory stays proportional to the number of boxes.
    """
    if bound < 1:
        raise ValueError(f"entry bound must be at least 1, got {bound}")
    skew = _as_skew(shape)

    def candidates(k: int, left: int, up: int) -> Iterator[int]:
        return iter(range(max(left, up + 1), bound + 1))

    return (Filling._trusted(skew, rows) for rows in _search(skew, candidates))


def enumerate_syt(shape: Partition) -> Iterator[Filling]:
    """All standard fillings of a straight shape, lexicographic by reading word.

    Same reading-order search as :func:`enumerate_ssyt`, with each
    value used exactly once and entries capped by how many larger values
    the boxes to the right and below still need.
    """
    n = shape.size
    conj = shape.conjugate().parts
    high = [n - (shape.parts[r] - 1 - c) - (conj[c] - 1 - r) for r, c in shape.boxes()]
    used = [False] * (n + 1)

    def candidates(k: int, left: int, up: int) -> Iterator[int]:
        for v in range(max(left, up) + 1, high[k] + 1):
            if not used[v]:
                used[v] = True
                yield v
                used[v] = False

    skew = shape.as_skew()
    return (Filling._trusted(skew, rows) for rows in _search(skew, candidates))


def bender_knuth(filling: Filling, index: int) -> Filling:
    """Involution swapping the multiplicities of ``index`` and ``index + 1``.

    An entry equal to ``index`` is free when no ``index + 1`` sits
    directly below it; an ``index + 1`` is free when no ``index`` sits
    directly above. Within each row the free small entries form a run
    immediately followed by the free large ones; a run of ``a`` small
    and ``b`` large becomes ``b`` small and ``a`` large. Everything else
    stays put, so applying the operation twice returns the input.
    """
    if index < 1:
        raise ValueError(f"index must be at least 1, got {index}")
    if not filling.is_semistandard():
        raise ValueError("operation is only defined on semistandard fillings")
    small, large = index, index + 1
    shape = filling.shape
    new_rows = [list(row) for row in filling.rows]
    for r, row in enumerate(filling.rows):
        off = shape.inner.part(r)
        free_small = []
        free_large = []
        for j, v in enumerate(row):
            c = off + j
            if v == small:
                if not (shape.has_box(r + 1, c) and filling.entry(r + 1, c) == large):
                    free_small.append(j)
            elif v == large:
                if not (shape.has_box(r - 1, c) and filling.entry(r - 1, c) == small):
                    free_large.append(j)
        slots = free_small + free_large  # small entries sit left of large ones
        flip = len(free_large)
        for pos, j in enumerate(slots):
            new_rows[r][j] = small if pos < flip else large
    return Filling(shape, tuple(tuple(row) for row in new_rows))
