"""The combinatorial Littlewood-Richardson rule over reverse reading words."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .fillings import Filling, _search
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
    counts = [content.size] + [0] * len(mu)  # slot 0 never runs short, so 1 is always lattice

    def candidates(k: int, right: int, up: int) -> Iterator[int]:
        for v in range(up + 1, (right or len(mu)) + 1):
            # content budget for v left, and one more v keeps the prefix lattice
            if counts[v] < mu[v - 1] and counts[v] < counts[v - 1]:
                counts[v] += 1
                yield v
                counts[v] -= 1

    return (
        LrWitness(Filling._trusted(skew, rows), mu)
        for rows in _search(skew, candidates, reverse=True)
    )


def lr_coefficient(inner: Partition, content: Partition, outer: Partition) -> int:
    """Number of witnesses; zero on containment failure or size mismatch."""
    return sum(1 for _ in enumerate_lr_fillings(outer, inner, content))
