"""The combinatorial Littlewood-Richardson rule over reverse reading words."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add, ge
from typing import Iterable, Iterator, Sequence

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
    in lexicographic order of that word. Empty when containment fails,
    the box counts cannot balance, or ``outer`` lies outside the
    dominance window inner ∪ content ⊴ outer ⊴ inner + content. The
    search is :func:`_lr_leaves`; each of its leaves becomes one witness.
    """
    if not _admissible(outer, inner, content):
        return iter(())
    lam, nu = inner.parts, outer.parts
    skew = SkewShape._trusted(outer, inner)
    # box k of reverse reading order is values[k + 1], so row r reads its slots backwards
    rows: list[slice] = []
    end = 0
    for r, hi in enumerate(nu):
        start, end = end, end + hi - (lam[r] if r < len(lam) else 0)
        rows.append(slice(end, start, -1))
    return (
        LrWitness(Filling._trusted(skew, tuple([tuple(values[s]) for s in rows])), content.parts)
        for values in _lr_leaves(lam, content.parts, nu)
    )


def _admissible(outer: Partition, inner: Partition, content: Partition) -> bool:
    """Whether outer/inner can hold a witness at all: containment, size, dominance window."""
    lam, mu, nu = inner.parts, content.parts, outer.parts
    if not outer.contains(inner) or sum(nu) - sum(lam) != sum(mu):
        return False
    # the lower bound is the upper one for conjugates: c^ν_{λμ} = c^ν′_{λ′μ′}, (λ ∪ μ)′ = λ′ + μ′
    row_sum = [*map(add, lam, mu), *(lam[len(mu) :] or mu[len(lam) :])]  # the longer one's tail
    return _dominates(row_sum, nu) and _dominates(nu, sorted(lam + mu, reverse=True))


def _lr_boxes(
    lam: tuple[int, ...], m: int, nu: tuple[int, ...]
) -> tuple[list[int], list[int], list[int]]:
    """Per box of ν/λ in reverse reading order: its cap, right-neighbour slot, upper slot.

    Box k is slot k + 1. A missing right neighbour is slot -1 and a
    missing upper one slot 0; :func:`_lr_leaves` keeps m and 0 there.
    """
    # min(r + 1, m - d) for a box in row r with d boxes below it is r + 1 minus
    # excess[c], the number of rows past the first m that reach its column
    excess: list[int] = []
    for r in range(len(nu) - 1, m - 1, -1):
        excess += [r + 1 - m] * (nu[r] - len(excess))
    wide = len(excess)
    # slot of the last box filled in each column: the box above, since skew columns are contiguous
    last = [0] * (nu[0] if nu else 0)
    cap: list[int] = []
    right: list[int] = []
    up: list[int] = []
    for r, hi in enumerate(nu):
        prev = -1
        for c in range(hi - 1, (lam[r] if r < len(lam) else 0) - 1, -1):
            cap.append(r + 1 - excess[c] if c < wide else r + 1)
            right.append(prev)
            up.append(last[c])
            last[c] = prev = len(cap)
    return cap, right, up


def _lr_leaves(
    lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]
) -> Iterator[list[int]]:
    """The one Littlewood-Richardson search: a leaf per witness of ν/λ with content μ.

    The caller has checked that λ ⊆ ν and |ν/λ| = |μ|. Boxes are filled
    in reverse reading order (rows top to bottom, each right to left),
    so the lattice condition and the content budget prune prefixes of
    the reverse reading word instead of filtering finished fillings.
    Box k is ``values[k + 1]``; at each leaf the same list is yielded
    again, so a consumer reads it before resuming. Leaves arrive in
    lexicographic order of the word.

    The box in row r caps its value at r + 1 (a v needs a v - 1 read
    earlier, and the entries to its right are at least v, so that v - 1
    sits in a higher row) and at ℓ(μ) minus the boxes below it in its
    column (they hold strictly larger values). The caps are fixed per
    box; a box then tries the values above its upper neighbour up to the
    smaller of its cap and its right neighbour. A value v is taken while
    fewer than μ_v v's and fewer v's than (v − 1)'s have been read.
    State is plain integers, and the loop backtracks by box index, so the
    depth is not bounded by Python recursion.
    """
    m = len(mu)
    cap, right, up = _lr_boxes(lam, m, nu)
    n = len(cap)
    values = [0] * (n + 1) + [m]  # slot -1 holds m, no cap is larger; slot 0 holds 0
    if not n:
        yield values
        return
    budget = (0,) + mu  # budget[v] is the number of v's the content asks for
    counts = [n] + [0] * m  # slot 0 never runs short, so 1 is always lattice
    k, v = 0, 1  # box k tries values from v on
    while True:
        hi = cap[k]
        bound = values[right[k]]
        if bound < hi:
            hi = bound
        while v <= hi:
            c = counts[v]
            if c < budget[v] and c < counts[v - 1]:
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
        else:
            yield values
            counts[v] = c
            k -= 1
            v += 1


def _dominates(big: Sequence[int], small: Sequence[int]) -> bool:
    """``small`` ⊴ ``big`` in dominance order, for partitions of one size.

    Partial sums are compared up to the shorter length only. Past it
    nothing new can fail: a shorter ``big`` has reached the total, and a
    shorter ``small`` already failed at its last part.
    """
    return all(map(ge, accumulate(big), accumulate(small)))


def lr_coefficient(inner: Partition, content: Partition, outer: Partition) -> int:
    """Number of witnesses; zero on containment failure, size mismatch or outside the window.

    Counts the leaves of the witness search of :func:`enumerate_lr_fillings`
    after the same checks, without building a shape, filling or witness.
    """
    if not _admissible(outer, inner, content):
        return 0
    return sum(1 for _ in _lr_leaves(inner.parts, content.parts, outer.parts))
