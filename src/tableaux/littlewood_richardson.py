"""The combinatorial Littlewood-Richardson rule over reverse reading words."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .fillings import Filling
from .partitions import Partition, SkewShape


def reverse_reading_word(filling: Filling) -> tuple[int, ...]:
    """Entries read along rows right to left, rows taken top to bottom."""
    word: list[int] = []
    for row in filling.rows:
        word.extend(reversed(row))
    return tuple(word)


def is_lattice(word: Iterable[int]) -> bool:
    """Every prefix holds at least as many (i-1)'s as i's, for each i >= 2."""
    counts: dict[int, int] = {}
    for letter in word:
        counts[letter] = counts.get(letter, 0) + 1
        if letter >= 2 and counts[letter] > counts.get(letter - 1, 0):
            return False
    return True


@dataclass(frozen=True)
class LrWitness:
    """A counted filling: semistandard, lattice reading word, prescribed content."""

    filling: Filling
    content: tuple[int, ...]


def enumerate_lr_fillings(
    outer: Partition, inner: Partition, content: Partition
) -> Iterator[LrWitness]:
    """Witnesses counted by the coefficient for (inner, content, outer).

    Yields the semistandard fillings of outer/inner whose reverse
    reading word is a lattice word and whose weight equals ``content``,
    in lexicographic order of that word. Empty when containment fails or
    the box counts cannot balance.

    Boxes are assigned in reverse reading order, so the lattice
    condition and the content budget prune the search as prefixes
    instead of filtering finished fillings.
    """
    if not outer.contains(inner) or outer.size - inner.size != content.size:
        return iter(())
    skew = SkewShape(outer, inner)
    mu = content.parts
    bound = len(mu)
    boxes: list[tuple[int, int]] = []
    for r in range(skew.nrows):
        lo, hi = skew.row_span(r)
        boxes.extend((r, c) for c in range(hi - 1, lo - 1, -1))
    grid = [[0] * (hi - lo) for lo, hi in (skew.row_span(r) for r in range(skew.nrows))]
    counts = [0] * (bound + 1)

    def fill(k: int) -> Iterator[LrWitness]:
        if k == len(boxes):
            filling = Filling._trusted(skew, tuple(tuple(row) for row in grid))
            yield LrWitness(filling, tuple(mu))
            return
        r, c = boxes[k]
        off = skew.inner.part(r)
        low, high = 1, bound
        if skew.has_box(r - 1, c):
            low = grid[r - 1][c - skew.inner.part(r - 1)] + 1
        if c + 1 < skew.outer.part(r):  # right neighbor is already assigned
            high = min(high, grid[r][c + 1 - off])
        for v in range(low, high + 1):
            if counts[v] >= mu[v - 1]:  # content budget for v exhausted
                continue
            if v >= 2 and counts[v] >= counts[v - 1]:  # would break the lattice prefix
                continue
            counts[v] += 1
            grid[r][c - off] = v
            yield from fill(k + 1)
            counts[v] -= 1

    return fill(0)


def lr_coefficient(inner: Partition, content: Partition, outer: Partition) -> int:
    """Number of witnesses; zero on containment failure or size mismatch."""
    return sum(1 for _ in enumerate_lr_fillings(outer, inner, content))
