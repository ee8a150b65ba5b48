"""The combinatorial Littlewood-Richardson rule over reverse reading words."""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import add, ge
from typing import Iterable, Iterator

from .fillings import Filling, _cut, _search
from .partitions import Partition, SkewShape, _columns, _ints, _typed


def reverse_reading_word(filling: Filling) -> tuple[int, ...]:
    """Entries read along rows right to left, rows taken top to bottom."""
    _typed("filling", filling, Filling)
    word: list[int] = []
    for row in filling.rows:
        word.extend(reversed(row))
    return tuple(word)


def is_lattice(word: Iterable[int]) -> bool:
    """Every prefix holds at least as many (i-1)'s as i's, for each i >= 2."""
    counts: dict[int, int] = {}
    for letter in _ints("letter", word, 1):
        counts[letter] = counts.get(letter, 0) + 1
        if letter >= 2 and counts[letter] > counts.get(letter - 1, 0):
            return False
    return True


def enumerate_lr_fillings(
    outer: Partition, inner: Partition, content: Partition
) -> Iterator[Filling]:
    """The fillings counted by the coefficient for (inner, content, outer).

    Yields the semistandard fillings of outer/inner whose reverse
    reading word is a lattice word and whose weight equals ``content``,
    in lexicographic order of that word. Empty when containment fails,
    a row of ``outer`` passes its Weyl cap (see :func:`_pair_bounds`),
    the box counts cannot balance, or ``outer`` lies outside the
    dominance window inner ∪ content ⊴ outer ⊴ inner + content. Each
    leaf of the :func:`_lr_leaves` search becomes one filling, its
    slots cut into the rows of outer/inner by :func:`fillings._cut`.
    """
    leaves = _lr_leaves(outer, inner, content)
    return iter(()) if leaves is None else _cut(SkewShape._trusted(outer, inner), leaves, reverse=True)


def _lr_leaves(
    outer: Partition, inner: Partition, content: Partition
) -> Iterator[list[int]] | None:
    """The witness search for outer/inner with weight ``content``, or None if no witness can exist.

    A witness needs containment, Weyl's row caps ν_k ≤ w_k, |ν| = |λ| + |μ|
    and the dominance window λ ∪ μ ⊴ ν ⊴ λ + μ, all held against the
    pair's entry of :func:`_pair_bounds`: the parts of ν go to the caps
    first, which costs less than the window, then its partial sums,
    formed once, go to the window. The search is
    :func:`fillings._search` over ν/λ in reverse reading order, with the
    budget (0,) + μ and the lattice condition, so both prune prefixes of
    the reverse reading word instead of filtering finished fillings. The
    box in row r is capped at r + 1 (a v needs a v - 1 read earlier, and
    the entries to its right are at least v, so that v - 1 sits in a
    higher row) and at m = ℓ(μ) less the boxes below it in its column
    (they hold strictly larger values). The lesser is r + 1 less the
    height past row m of its column, the column term ``_columns(ν, m)``
    (:func:`partitions._columns`). The type check, the caps and the
    window run at the call, before any leaf.
    """
    # one test on the hot path; the loop only names the offending argument
    if not (isinstance(outer, Partition) and isinstance(inner, Partition) and isinstance(content, Partition)):
        for name, value in (("outer", outer), ("inner", inner), ("content", content)):
            _typed(name, value, Partition)
    if not outer.contains(inner):
        return None
    nu, mu = outer.parts, content.parts
    size, upper, lower, caps = _pair_bounds(inner.parts, mu)
    if len(nu) > len(caps) or not all(map(ge, caps, nu)):
        return None
    sums = [*accumulate(nu, initial=0)]
    if sums[-1] != size or not all(map(ge, upper, sums)) or not all(map(ge, sums, lower)):
        return None
    return _search(nu, inner.parts, range(1, len(nu) + 1), _columns(nu, len(mu)), (0,) + mu, reverse=True)


@lru_cache(maxsize=1)
def _pair_bounds(
    lam: tuple[int, ...], mu: tuple[int, ...]
) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The dominance window and the Weyl row caps of (λ, μ), whatever ν is asked.

    One entry is (|λ| + |μ|, the partial sums of λ + μ, the partial sums
    of λ ∪ μ, the row caps). The sums start at 0, as do those of ν, so an
    empty ν has a last sum too. λ + μ adds the rows and keeps the longer one's tail;
    λ ∪ μ is the parts of both, sorted. The lower bound is the upper one
    for conjugates: c^ν_{λμ} = c^ν′_{λ′μ′} and (λ ∪ μ)′ = λ′ + μ′.

    Dominance between partitions of one size compares partial sums up to
    the shorter length only, as ``zip`` and ``map`` stop there. Past it
    nothing new can fail: a shorter dominating side has reached the
    total, and a shorter dominated side reached the total at its last
    part, so the other side either reached it there too or already
    failed.

    The row caps are Weyl's inequalities ν_{i+j} ≤ λ_i + μ_j, with rows
    counted from 0 and zero parts past the end: w_k is the least
    λ_i + μ_j over i + j = k, for k < ℓ(λ) + ℓ(μ), and ν has no row past
    them; the minimum is taken as written, over λ and μ each padded with
    zeros to ℓ(λ) + ℓ(μ) parts. They are Horn's inequalities for r = 1,
    which hold whenever c^ν_{λμ} > 0 (Fulton, Bull. AMS 37 (2000);
    Knutson–Tao 1999). w_0 is the first bound of the window, but the caps
    also refuse ν inside it, the smallest being λ = (2), μ = (1, 1),
    ν = (2, 2): w_1 = λ_1 + μ_0 = 1.

    A table of one entry, the pair in hand: the gain comes from the many ν
    asked of one pair in a row, so a new pair evicts the last one and no
    entry is kept between sweeps.
    """
    row_sum = [*map(add, lam, mu), *(lam[len(mu) :] or mu[len(lam) :])]  # the longer one's tail
    union = sorted(lam + mu, reverse=True)
    a, b = lam + (0,) * len(mu), mu + (0,) * len(lam)
    caps = tuple(min(map(add, a[: k + 1], b[k::-1])) for k in range(len(a)))
    upper, lower = tuple(accumulate(row_sum, initial=0)), tuple(accumulate(union, initial=0))
    return sum(row_sum), upper, lower, caps


def lr_coefficient(inner: Partition, content: Partition, outer: Partition) -> int:
    """Number of witnesses; zero on containment failure, a row past its cap, size mismatch or outside the window.

    Counts the leaves of the :func:`_lr_leaves` search that
    :func:`enumerate_lr_fillings` turns into fillings, without building a
    shape or filling. The window and the row caps of (inner, content)
    are one entry of the table :func:`_pair_bounds`, shared by the
    queries for every ``outer``.
    """
    leaves = _lr_leaves(outer, inner, content)
    return 0 if leaves is None else sum(1 for _ in leaves)
