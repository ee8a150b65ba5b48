"""Integer partitions, Young-diagram geometry, hooks, and exact counting."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from math import factorial, perm
from operator import le
from typing import Iterator


class NotWeaklyDecreasingError(ValueError):
    """Part sequence is not weakly decreasing after zero removal."""


class InvalidBoxError(ValueError):
    """Box coordinate falls outside the diagram."""


class NotContainedError(ValueError):
    """Inner shape of a skew pair does not fit inside the outer one."""


class GuardExceededError(ValueError):
    """Request exceeds the box guard of its ``tableaux`` subcommand (see ``--max-boxes``)."""


Box = tuple[int, int]  # (row, col), 0-based, English notation: row 0 on top


def _count(name: str, value, least: int | None = 0) -> int:
    """``value``, once it is an ``int`` (not a bool) of at least ``least``: 0, 1, or ``None`` for any.

    Every public count, box coordinate and integer a value holds is
    refused here: a ``TypeError`` or ``ValueError`` naming it.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be {f'at least {least}' if least else 'nonnegative'}, got {value}")
    return value


def _ints(name: str, values, least: int | None = 0) -> tuple[int, ...]:
    """``values`` as a tuple, once :func:`_count` takes each of them.

    C-level passes decide; only a failure walks the values, so ``_count`` names the first bad one.
    """
    values = tuple(values)
    if not ({int}.issuperset(map(type, values)) and (least is None or not values or min(values) >= least)):
        for value in values:
            _count(name, value, least)
    return values


def _typed(name: str, value, *kinds: type) -> None:
    """A ``TypeError`` naming the argument ``value`` unless it is an instance of one of ``kinds``."""
    if not isinstance(value, kinds):
        raise TypeError(f"{name} must be a {' or '.join(kind.__name__ for kind in kinds)}, got {value!r}")


def _is_one_to_n(values, n: int) -> bool:
    """Whether the integers ``values`` are exactly 1..n, each once, in any order."""
    # n distinct integers from 1 to n are exactly 1..n; dict.fromkeys peaks at a third of a set's memory
    seen = dict.fromkeys(values)
    return len(seen) == n and min(seen, default=1) == 1 and max(seen, default=0) == n


def _columns(parts: tuple[int, ...], floor: int = 0) -> list[int]:
    """The heights, less ``floor``, of the columns of ``parts`` taller than ``floor``, left to right."""
    heights: list[int] = []
    for r in range(len(parts), floor, -1):  # the columns row r - 1 reaches past row r have height r
        heights += [r - floor] * (parts[r - 1] - len(heights))
    return heights


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing sequence of positive integers.

    Zeros are stripped on construction, so every value is canonical and
    the empty sequence is the empty partition. Instances are immutable
    and hashable.
    """

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = _ints("part", self.parts)
        cleaned = tuple(p for p in parts if p > 0)
        if any(cleaned[i] < cleaned[i + 1] for i in range(len(cleaned) - 1)):
            raise NotWeaklyDecreasingError(
                f"{list(parts)} is not weakly decreasing after zero removal"
            )
        object.__setattr__(self, "parts", cleaned)

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> "Partition":
        # internal: parts already a weakly decreasing tuple of positive ints
        partition = object.__new__(cls)
        object.__setattr__(partition, "parts", parts)
        return partition

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def __str__(self):
        return format_partition(self)

    @property
    def size(self) -> int:
        """Total number of boxes."""
        return sum(self.parts)

    @property
    def nrows(self) -> int:
        return len(self.parts)

    def part(self, row: int) -> int:
        """Length of ``row``, with rows past the bottom counting as 0."""
        return self.parts[row] if 0 <= _count("row", row, None) < len(self.parts) else 0

    def contains(self, other: "Partition") -> bool:
        """True iff ``other``'s diagram fits inside this one, row by row."""
        return len(other.parts) <= len(self.parts) and all(map(le, other.parts, self.parts))

    def conjugate(self) -> "Partition":
        """Transpose of the diagram: the column heights of :func:`_columns` become row lengths."""
        return Partition._trusted(tuple(_columns(self.parts)))

    def boxes(self) -> Iterator[Box]:
        """Box coordinates in row-reading order."""
        return self.as_skew().boxes()

    def hook_length(self, row: int, col: int) -> int:
        """Boxes to the right in the row, plus below in the column, plus the box itself."""
        if not self.as_skew().has_box(row, col):
            raise InvalidBoxError(f"box ({row}, {col}) is not in {self}")
        arm = self.parts[row] - col
        leg = sum(1 for p in self.parts[row + 1 :] if p > col)
        return arm + leg

    def hooks(self) -> Iterator[int]:
        """All hook lengths, in row-reading box order."""
        conj = self.conjugate().parts
        for r, length in enumerate(self.parts):
            for c in range(length):
                yield (length - c) + (conj[c] - r - 1)

    def as_skew(self) -> "SkewShape":
        return SkewShape._trusted(self, EMPTY)


EMPTY = Partition(())


@dataclass(frozen=True)
class SkewShape:
    """Boxes of ``outer`` not in ``inner``, the inner diagram top-left justified."""

    outer: Partition
    inner: Partition = EMPTY

    def __post_init__(self):
        _typed("outer", self.outer, Partition)
        _typed("inner", self.inner, Partition)
        if not self.outer.contains(self.inner):
            raise NotContainedError(f"{self.inner} is not contained in {self.outer}")

    @classmethod
    def _trusted(cls, outer: Partition, inner: Partition) -> "SkewShape":
        # internal: the caller has already checked that outer contains inner
        skew = object.__new__(cls)
        object.__setattr__(skew, "outer", outer)
        object.__setattr__(skew, "inner", inner)
        return skew

    def __str__(self):
        if self.inner.parts:
            return f"{self.outer}/{self.inner}"
        return str(self.outer)

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    @property
    def nrows(self) -> int:
        return self.outer.nrows

    def row_span(self, row: int) -> tuple[int, int]:
        """Half-open column range of the boxes present in ``row``; (0, 0) past either end."""
        if 0 <= _count("row", row, None) < len(self.outer.parts):
            return (self.inner.parts[row] if row < self.inner.nrows else 0), self.outer.parts[row]
        return 0, 0

    def has_box(self, row: int, col: int) -> bool:
        lo, hi = self.row_span(row)
        return lo <= _count("col", col, None) < hi

    def boxes(self) -> Iterator[Box]:
        """Box coordinates in row-reading order (top to bottom, left to right)."""
        for r, (lo, hi) in enumerate(zip(chain(self.inner.parts, repeat(0)), self.outer.parts)):
            for c in range(lo, hi):
                yield (r, c)


def count_standard_tableaux(shape: Partition) -> int:
    """Number of standard fillings of ``shape``, via the hook-length formula.

    f = n! / prod(hooks), with the hooks taken a run of columns at a time
    and no box visited. With q the parts and a trailing 0, the columns
    q[h] .. q[h - 1] - 1 all have height h, and in row r < h their hooks
    are consecutive, the largest (q[r] - r) + (h - 1 - q[h]) (Macdonald
    I.1). So each row of a run gives one falling factorial,
    ``perm(largest, q[h - 1] - q[h])``. A shape of k rows and d distinct
    parts takes at most k * d of them, and never more than its boxes.

    The quotient is one exact integer division and always an integer; a
    remainder means the hook computation is broken and raises rather
    than returning garbage.
    """
    _typed("shape", shape, Partition)
    n, q = shape.size, shape.parts + (0,)
    hooks, arms = 1, []  # arms[r] = q[r] - r, for each row r < h
    for h in range(1, len(q)):
        arms.append(q[h - 1] - h + 1)
        width = q[h - 1] - q[h]
        if width:
            top = h - 1 - q[h]
            for arm in arms:
                hooks *= perm(arm + top, width)
    count, rest = divmod(factorial(n), hooks)
    if rest:
        raise ArithmeticError(f"hook product does not divide {n}! for {shape}")
    return count


def partitions_of(n: int) -> Iterator[Partition]:
    """Every partition of ``n`` exactly once, in reverse-lexicographic order.

    The order is fixed and documented because CLI output and golden
    tests depend on it: ``(n)`` first, all-ones last, tuple comparison
    descending in between. It is the walk from ``(n)`` at width ``n``,
    lazy, so ``partitions_of(10**9)`` yields at once.
    """
    _count("n", n)
    return (Partition._trusted(parts) for parts in _walk((n,) if n else (), n))


def _walk(lead: tuple[int, ...], width: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``|lead|`` into at most ``width`` parts, lex-descending from ``lead``.

    ``lead`` is a partition of at most ``width`` parts; every caller
    answers a taller shape before it walks. Each yield is a tuple without
    zeros; every partition not lex-greater than ``lead`` and of at most
    ``width`` parts comes once. Each successor lowers by one the rightmost
    part whose lost box, with the boxes after it, still fits in the width
    left, then refills the parts after it as high as they go (the
    reverse-lexicographic successor; Knuth, TAOCP 4A §7.2.1.4). Nothing is
    padded to the width, so the cost of a step follows the parts, not the
    width.

    As in ZS1 (Zoghbi and Stojmenović, 1998), ``h`` indexes the last part
    greater than 1, so the trailing ones are counted, never scanned, and
    a 2 with room after it splits into 1 + 1 in one append.
    """
    parts = list(lead)
    h = len(parts) - 1  # the last part greater than 1, or -1
    while h >= 0 and parts[h] == 1:
        h -= 1
    while True:
        yield tuple(parts)
        if h < 0:
            return
        if parts[h] == 2 and len(parts) < width:
            parts[h] = 1
            parts.append(1)
            h -= 1
            continue
        rest = len(parts) - 1 - h  # the trailing ones
        i = h
        while rest >= (width - 1 - i) * (parts[i] - 1):
            rest += parts[i]
            i -= 1
            if i < 0:
                return
        # parts[i] >= 3 here: a 2 that can split took the step above, and no 2 left of it can
        part = parts[i] - 1
        count, rest = divmod(rest + 1, part)
        parts[i:] = [part] * (count + 1)
        h = i + count
        if rest:
            parts.append(rest)
            if rest > 1:
                h += 1


@lru_cache(maxsize=256)
def _partitions_below(lead: tuple[int, ...], width: int) -> tuple[tuple[int, ...], ...]:
    """The whole of ``_walk(lead, width)`` as a tuple, in a bounded table; ``lead`` fits the width.

    One entry is shared by every caller, so Schur builds, orbit products
    and expansions that meet the same lead walk it once.
    """
    return tuple(_walk(lead, width))


def _capped_vectors(caps: tuple[int, ...], total: int) -> list[tuple[int, ...]]:
    """Every vector ``t`` with ``0 <= t[i] <= caps[i]`` and ``sum(t) == total``, lex-ascending.

    Built one entry at a time, keeping only prefixes that can still reach
    ``total`` with the caps left. Empty ``caps`` give ``[()]`` at total 0
    and nothing otherwise. The horizontal strips of the Kostka passes and
    the splits of the orbit product both read this walk.
    """
    room = sum(caps)
    prefixes = [((), total)]  # (vector so far, amount still to place)
    for cap in caps:
        room -= cap
        prefixes = [
            (prefix + (t,), left - t)
            for prefix, left in prefixes
            for t in range(max(0, left - room), min(cap, left) + 1)
        ]
    # with no entry to choose, the loop above checked no amount
    return [vector for vector, left in prefixes if not left]


def _ascii_ints(text: str) -> tuple[int, ...] | None:
    """Comma-separated integers, each ASCII digits after a minus sign at most; else ``None``.

    Whitespace around entries is ignored. ``int`` alone also reads ``+1``,
    ``1_0`` and non-ASCII digits such as ``٢``; with no ``+`` or ``_``, and
    nothing outside ASCII but whitespace, the one form left to it is
    ``-?[0-9]+`` inside whitespace. Each test is a C-level pass over the
    whole string, not a Python step per entry.
    """
    if "+" in text or "_" in text or not (text.isascii() or "".join(text.split()).isascii()):
        return None
    try:
        return tuple(map(int, text.split(",")))
    except ValueError:
        return None


def parse_partition(text: str) -> Partition:
    """Parse the bracket format used everywhere: ``[4,2,1]``; ``[]`` is empty.

    Whitespace around brackets, commas, and numbers is ignored; it never
    separates parts, so ``[4 2]`` is rejected rather than silently
    reinterpreted.
    """
    stripped = text.strip()
    if not (stripped.startswith("[") and stripped.endswith("]")):
        raise ValueError(f"expected bracketed parts like [4,2,1], got {text!r}")
    body = stripped[1:-1]
    if not body.strip():
        return EMPTY
    parts = _ascii_ints(body)
    if parts is None:
        raise ValueError(f"expected comma-separated integers, got {text!r}")
    return Partition(parts)


def format_partition(shape: Partition) -> str:
    """Inverse of :func:`parse_partition`."""
    return "[" + ",".join(str(p) for p in shape.parts) + "]"
