"""The Schensted correspondence: row insertion, the bijection, and its inverse."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

from .fillings import Filling
from .partitions import Partition, _ascii_ints, _count, _ints, _is_one_to_n, _typed


class MalformedPairError(ValueError):
    """Tableau pair is not two straight standard tableaux of equal shape."""


@dataclass(frozen=True)
class Permutation:
    """One-line notation: ``images[i-1]`` is where ``i`` is sent."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = _ints("image", self.images, None)
        object.__setattr__(self, "images", images)
        if not _is_one_to_n(images, len(images)):
            raise ValueError(f"{list(images)} is not a permutation of 1..{len(images)}")

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        # internal: images already a tuple of ints that is a permutation of 1..n
        perm = object.__new__(cls)
        object.__setattr__(perm, "images", images)
        return perm

    def __repr__(self):
        return f"Permutation({list(self.images)})"

    def __str__(self):
        return format_permutation(self)

    @property
    def n(self) -> int:
        return len(self.images)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation._trusted(tuple(inv))


def _as_permutation(perm: "Permutation | Sequence[int]") -> Permutation:
    return perm if isinstance(perm, Permutation) else Permutation(tuple(perm))


@dataclass(frozen=True)
class RskPair:
    """Same-shape pair of standard tableaux: (insertion, recording)."""

    insertion: Filling
    recording: Filling

    def __post_init__(self):
        _typed("insertion", self.insertion, Filling)
        _typed("recording", self.recording, Filling)
        if self.insertion.shape != self.recording.shape or self.insertion.shape.inner.parts:
            raise MalformedPairError("need two straight tableaux of equal shape")
        if not (self.insertion.is_standard() and self.recording.is_standard()):
            raise MalformedPairError("both tableaux must be standard")

    @classmethod
    def _trusted(cls, insertion: Filling, recording: Filling) -> "RskPair":
        # internal: two standard fillings of one straight shape
        pair = object.__new__(cls)
        object.__setattr__(pair, "insertion", insertion)
        object.__setattr__(pair, "recording", recording)
        return pair

    @property
    def shape(self) -> Partition:
        return self.insertion.shape.outer


def _insert(rows: list[list[int]], value: int) -> int:
    """Row-insert ``value`` into ``rows`` in place; return the row of the new box.

    Each row visited costs one ``bisect_right`` and one swap: the incoming
    value displaces the leftmost strictly larger entry, so a bumped entry
    goes after any equal entries of the next row and columns stay strict.
    The first row with nothing larger raises ``IndexError`` at the swap and
    takes the value at its end instead. A box created in row r visits
    r + 1 rows, so inserting n letters into a final shape λ visits
    n(λ) + n rows, where n(λ) = Σ (i − 1)·λ_i.
    """
    v = value
    r = 0
    for row in rows:
        j = bisect_right(row, v)
        try:
            row[j], v = v, row[j]
        except IndexError:
            row.append(v)
            return r
        r += 1
    rows.append([v])
    return r


def row_insert(tableau: Filling, value: int) -> tuple[Filling, tuple[int, int]]:
    """Bump ``value`` into the first row and cascade displacements downward.

    In each row the incoming value replaces the leftmost strictly larger
    entry, which is then inserted into the next row; when nothing is
    larger it lands in a new box at the end of the row. Requires a
    straight semistandard tableau and a positive integer ``value`` that
    is not already among its entries (entries of the tableau may
    repeat); a ``value`` that is no ``int`` (a bool or float, say)
    raises ``TypeError``, and one below 1, a skew or non-semistandard
    ``tableau``, or a ``value`` already present, raises ``ValueError``.
    Returns the grown tableau and the coordinate of the created box.
    """
    _typed("tableau", tableau, Filling)
    _count("value", value, 1)
    if tableau.shape.inner.parts or not tableau.is_semistandard():
        raise ValueError(f"need a straight semistandard tableau, got rows {list(tableau.rows)}")
    if any(value in row for row in tableau.rows):
        raise ValueError(f"{value} is already an entry of the tableau")
    rows = [list(row) for row in tableau.rows]
    r = _insert(rows, value)
    # row insertion keeps a straight tableau semistandard: the grown one is built trusted
    shape = Partition._trusted(tuple(map(len, rows))).as_skew()
    return Filling._trusted(shape, tuple(map(tuple, rows))), (r, len(rows[r]) - 1)


def _steps(perm: Permutation) -> Iterator[tuple[list[list[int]], list[list[int]]]]:
    """Live (insertion rows, recording rows) after 0, 1, ..., n insertions.

    The same two lists are yielded every time and mutated in place: copy
    a state to keep it.
    """
    insertion: list[list[int]] = []
    recording: list[list[int]] = []
    yield insertion, recording
    for step, value in enumerate(perm.images, start=1):
        r = _insert(insertion, value)
        if r == len(recording):
            recording.append([])
        recording[r].append(step)
        yield insertion, recording


def _fillings(insertion: list[list[int]], recording: list[list[int]]) -> tuple[Filling, Filling]:
    """Copies of the live rows of :func:`_steps` as two trusted fillings, not validated again.

    Row insertion keeps the insertion tableau increasing with distinct
    entries and the recording tableau standard, on one straight shape.
    """
    shape = Partition._trusted(tuple(map(len, insertion))).as_skew()
    return (Filling._trusted(shape, tuple(map(tuple, insertion))),
            Filling._trusted(shape, tuple(map(tuple, recording))))


def rsk(perm: Permutation | Sequence[int]) -> RskPair:
    """Insert the one-line word left to right; record where each box appears.

    Step i row-inserts the i-th value into the insertion tableau and
    writes i into the recording tableau at the coordinate of the box the
    insertion created, so the two always share a shape. The steps run on
    plain lists, and the pair is built from them once, at the end,
    trusted like the snapshots of :func:`rsk_trace`.
    """
    insertion, recording = deque(_steps(_as_permutation(perm)), maxlen=1)[0]
    return RskPair._trusted(*_fillings(insertion, recording))


def rsk_trace(perm: Permutation | Sequence[int]) -> list[tuple[Filling, Filling]]:
    """(insertion, recording) snapshots after 0, 1, ..., n insertions, each built trusted."""
    return [_fillings(insertion, recording) for insertion, recording in _steps(_as_permutation(perm))]


def inverse_rsk(pair: RskPair) -> Permutation:
    """Recover the unique permutation the pair came from, by reverse bumping.

    For k = n down to 1: the box holding k in the recording tableau is
    the corner created at step k; eject the insertion entry there and
    bump it upward, each row passing along its rightmost entry smaller
    than the incoming one. Whatever leaves row 0 was the value inserted
    at step k.

    The search in each row starts at the column the incoming entry left:
    the entry above that column is smaller (columns increase downward),
    so the rightmost smaller entry sits there or further right, and the
    reverse path moves weakly right going up. Removing a box of row r
    visits r + 1 rows, n(λ) + n in all, as many as the forward insertions.
    The images of a valid pair are 1..n, so the permutation is built
    trusted.
    """
    _typed("pair", pair, RskPair)
    t_rows = [list(row) for row in pair.insertion.rows]
    n = pair.shape.size
    row_of = [0] * (n + 1)  # row_of[k]: row of the recording box holding k
    for r, row in enumerate(pair.recording.rows):
        for step in row:
            row_of[step] = r
    images = [0] * n
    for step in range(n, 0, -1):
        r = row_of[step]
        j = len(t_rows[r]) - 1
        v = t_rows[r].pop()
        for row in reversed(t_rows[:r]):
            j = bisect_left(row, v, j) - 1  # rightmost entry below v; exists in valid pairs
            row[j], v = v, row[j]
        images[step - 1] = v
    return Permutation._trusted(tuple(images))


def lis_length(perm: Permutation | Sequence[int]) -> int:
    """Longest increasing subsequence length, by patience-sorting pile counts.

    Deliberately shares nothing with the insertion machinery so the
    first-row-length law can be checked against an independent route.
    """
    perm = _as_permutation(perm)
    pile_tops: list[int] = []
    for v in perm.images:
        idx = bisect_left(pile_tops, v)
        if idx == len(pile_tops):
            pile_tops.append(v)
        else:
            pile_tops[idx] = v
    return len(pile_tops)


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation: digits glued together, or comma-separated.

    Whitespace around entries and commas is ignored. In the comma form
    it never joins two entries, so ``1,2,3,4,5,6,7,8,9,1 0`` is rejected
    rather than read with 10 as its last entry. Entries are ASCII digits:
    ``+1``, ``1_0`` and ``٢`` are rejected, though ``int`` reads them.
    """
    # glued digits are the comma form with a comma between each two characters
    entries = text if "," in text else ",".join("".join(text.split()))
    values = _ascii_ints(entries) if entries else ()
    if values is None:
        raise ValueError(f"bad one-line notation: {text!r}")
    return Permutation(values)


def format_permutation(perm: Permutation) -> str:
    """One-line notation: no separators up to n = 9, commas beyond."""
    return ("" if perm.n <= 9 else ",").join(map(str, perm.images))
