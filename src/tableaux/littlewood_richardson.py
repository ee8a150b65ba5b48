"""The combinatorial Littlewood-Richardson rule over reverse reading words."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add, ge
from typing import Iterable, Iterator, Sequence

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
    in lexicographic order of that word. Empty when containment fails,
    the box counts cannot balance, or ``outer`` lies outside the
    dominance window inner ∪ content ⊴ outer ⊴ inner + content.

    Boxes are assigned in reverse reading order, so the lattice
    condition and the content budget prune the search as prefixes
    instead of filtering finished fillings. The box in row r caps its
    value at r + 1 (a v needs a v - 1 read earlier, and the entries to
    its right are at least v, so that v - 1 sits in a higher row) and at
    len(content) minus the boxes below it in its column (they hold
    strictly larger values). The caps are fixed per box and computed
    once; a box then tries the values above its upper neighbor up to
    the smaller of its cap and its right neighbor.
    """
    lam, mu, nu = inner.parts, content.parts, outer.parts
    if not outer.contains(inner) or sum(nu) - sum(lam) != sum(mu):
        return iter(())
    # the lower bound is the upper one for conjugates: c^ν_{λμ} = c^ν′_{λ′μ′}, (λ ∪ μ)′ = λ′ + μ′
    row_sum = [*map(add, lam, mu), *(lam[len(mu) :] or mu[len(lam) :])]  # the longer one's tail
    if not _dominates(row_sum, nu) or not _dominates(nu, sorted(lam + mu, reverse=True)):
        return iter(())
    skew = SkewShape._trusted(outer, inner)
    m = len(mu)
    # min(r + 1, m - d) for a box in row r with d boxes below it is r + 1 minus
    # excess[c], the number of rows past the first m that reach its column
    excess: list[int] = []
    for r in range(len(nu) - 1, m - 1, -1):
        excess += [r + 1 - m] * (nu[r] - len(excess))
    wide = len(excess)
    cap: list[int] = []
    for r, hi in enumerate(nu):
        for c in range(hi - 1, (lam[r] if r < len(lam) else 0) - 1, -1):
            cap.append(r + 1 - excess[c] if c < wide else r + 1)
    budget = (0,) + mu  # budget[v] is the number of v's the content asks for
    counts = [content.size] + [0] * m  # slot 0 never runs short, so 1 is always lattice

    def candidates(k: int, right: int, up: int) -> Iterator[int]:
        hi = cap[k]
        if 0 < right < hi:  # a right neighbor bounds the box from above
            hi = right
        for v in range(up + 1, hi + 1):
            # content budget for v left, and one more v keeps the prefix lattice
            c = counts[v]
            if c < budget[v] and c < counts[v - 1]:
                counts[v] = c + 1
                yield v
                counts[v] = c

    return (
        LrWitness(Filling._trusted(skew, rows), mu)
        for rows in _search(skew, candidates, reverse=True)
    )


def _dominates(big: Sequence[int], small: Sequence[int]) -> bool:
    """``small`` ⊴ ``big`` in dominance order, for partitions of one size.

    Partial sums are compared up to the shorter length only. Past it
    nothing new can fail: a shorter ``big`` has reached the total, and a
    shorter ``small`` already failed at its last part.
    """
    return all(map(ge, accumulate(big), accumulate(small)))


def lr_coefficient(inner: Partition, content: Partition, outer: Partition) -> int:
    """Number of witnesses; zero on containment failure or size mismatch."""
    return sum(1 for _ in enumerate_lr_fillings(outer, inner, content))
