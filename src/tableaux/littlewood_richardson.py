"""The combinatorial Littlewood-Richardson rule over reverse reading words."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import add, ge
from typing import Iterable, Iterator

from .fillings import Filling, _leaves
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
    dominance window inner ∪ content ⊴ outer ⊴ inner + content. Each
    leaf of the :func:`_lr_leaves` search becomes one witness, its
    slots cut into the rows of outer/inner.
    """
    leaves = _lr_leaves(outer, inner, content)
    if leaves is None:
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
        for values in leaves
    )


def _lr_leaves(
    outer: Partition, inner: Partition, content: Partition
) -> Iterator[list[int]] | None:
    """The witness search for outer/inner with weight ``content``, or None if no witness can exist.

    A witness needs containment, |ν| = |λ| + |μ| and the dominance
    window λ ∪ μ ⊴ ν ⊴ λ + μ; the partial sums of ν are formed once and
    held to the pair's bounds from :func:`_pair_bounds`. The search is
    :func:`fillings._leaves` over the :func:`_lr_boxes` tables, with the
    budget (0,) + μ and the lattice condition on, so both prune prefixes
    of the reverse reading word instead of filtering finished fillings.
    The type check and the window run at the call, before any leaf.
    """
    # one test on the hot path; the loop only names the offending argument
    if not (isinstance(outer, Partition) and isinstance(inner, Partition) and isinstance(content, Partition)):
        for name, value in (("outer", outer), ("inner", inner), ("content", content)):
            if not isinstance(value, Partition):
                raise TypeError(f"{name} must be a Partition, got {value!r}")
    if not outer.contains(inner):
        return None
    mu = content.parts
    size, upper, lower = _pair_bounds(inner.parts, mu)
    sums = [*accumulate(outer.parts, initial=0)]
    if sums[-1] != size or not all(map(ge, upper, sums)) or not all(map(ge, sums, lower)):
        return None
    cap, right, up = _lr_boxes(inner.parts, len(mu), outer.parts)
    return _leaves(cap, up, right, up, (0,) + mu, lattice=True)


@lru_cache(maxsize=1)
def _pair_bounds(lam: tuple[int, ...], mu: tuple[int, ...]) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The dominance window of (λ, μ), whatever ν is asked.

    One entry is (|λ| + |μ|, the partial sums of λ + μ, the partial sums
    of λ ∪ μ). The sums start at 0, as do those of ν, so an empty ν has a
    last sum too. λ + μ adds the rows and keeps the longer one's tail;
    λ ∪ μ is the parts of both, sorted. The lower bound is the upper one
    for conjugates: c^ν_{λμ} = c^ν′_{λ′μ′} and (λ ∪ μ)′ = λ′ + μ′.

    Dominance between partitions of one size compares partial sums up to
    the shorter length only, as ``zip`` and ``map`` stop there. Past it
    nothing new can fail: a shorter dominating side has reached the
    total, and a shorter dominated side reached the total at its last
    part, so the other side either reached it there too or already
    failed.

    A table of one entry, the pair in hand: the gain comes from the many ν
    asked of one pair in a row, so a new pair evicts the last one and no
    entry is kept between sweeps.
    """
    row_sum = [*map(add, lam, mu), *(lam[len(mu) :] or mu[len(lam) :])]  # the longer one's tail
    union = sorted(lam + mu, reverse=True)
    return sum(row_sum), tuple(accumulate(row_sum, initial=0)), tuple(accumulate(union, initial=0))


def _lr_boxes(
    lam: tuple[int, ...], m: int, nu: tuple[int, ...]
) -> tuple[list[int], list[int], list[int]]:
    """Per box of ν/λ in reverse reading order: its cap, right-neighbour slot, upper slot.

    Rows are taken top to bottom, each right to left. Box k is slot
    k + 1. A missing right neighbour is slot -1 and a missing upper one
    slot 0, where :func:`fillings._leaves` keeps m = ℓ(μ) and 0. The box
    in row r is capped at r + 1 (a v needs a v - 1 read earlier, and the
    entries to its right are at least v, so that v - 1 sits in a higher
    row) and at m minus the boxes below it in its column (they hold
    strictly larger values).
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


def lr_coefficient(inner: Partition, content: Partition, outer: Partition) -> int:
    """Number of witnesses; zero on containment failure, size mismatch or outside the window.

    Counts the leaves of the :func:`_lr_leaves` search that
    :func:`enumerate_lr_fillings` turns into witnesses, without building a
    shape, filling or witness. The window of (inner, content) is one entry
    of the table :func:`_pair_bounds`, shared by the queries for every
    ``outer``.
    """
    leaves = _lr_leaves(outer, inner, content)
    return 0 if leaves is None else sum(1 for _ in leaves)
