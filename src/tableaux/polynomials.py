"""Sparse multivariate polynomials with exact integer coefficients."""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from functools import lru_cache
from math import factorial, perm, prod
from operator import add, itemgetter, sub
from typing import Iterable

from .partitions import _capped_vectors, _count, _ints, _partitions_below


class WidthMismatchError(ValueError):
    """Polynomials over different variable counts were combined."""


class Polynomial:
    """Finite map from fixed-width exponent vectors to integer coefficients.

    Immutable. Zero coefficients are never stored. The variable count
    (``width``) is fixed per polynomial and checked on every binary
    operation. The terms are one dict keyed by exponent tuples.

    A polynomial symmetric and homogeneous of degree ``d`` by construction
    (a Schur polynomial, or a product of two such) stores only its
    dominant table: its coefficient at each partition of ``d`` into at most
    ``width`` parts, keyed by the partition's tuple without zeros. Its
    length, leading term and zero test read that table; the first read of
    a monomial writes every orbit into the terms, lex-descending. Products
    of two of them take the orbit route of :meth:`__mul__`. Nothing else is
    built this way, whatever its terms.
    """

    __slots__ = ("_width", "_terms", "_dominant")

    def __init__(self, width: int, terms: Mapping[Iterable[int], int] | None = None):
        self._width = _count("width", width)
        self._terms = {}
        self._dominant = None
        for exps, coeff in (terms or {}).items():
            key = self._key(exps)
            if _count("coefficient", coeff, None):
                self._terms[key] = coeff

    @classmethod
    def _from_terms(cls, width: int, terms: dict[tuple[int, ...], int]) -> "Polynomial":
        # internal: ``terms`` has valid keys of length ``width``; zero coefficients drop here.
        if 0 in terms.values():
            terms = {key: c for key, c in terms.items() if c}
        poly = object.__new__(cls)
        poly._width = width
        poly._terms = terms
        poly._dominant = None
        return poly

    @classmethod
    def _symmetric(cls, width: int, dominant: dict[tuple[int, ...], int]) -> "Polynomial":
        # internal: symmetric and homogeneous by construction; ``dominant``
        # maps partitions of one size into at most ``width`` parts, as tuples
        # without zeros, to their coefficients, so any key gives the degree;
        # zero coefficients drop here.
        poly = object.__new__(cls)
        poly._width = width
        poly._terms = None
        poly._dominant = {key: c for key, c in dominant.items() if c}
        return poly

    @classmethod
    def zero(cls, width: int) -> "Polynomial":
        return cls(width)

    @classmethod
    def constant(cls, width: int, value: int) -> "Polynomial":
        return cls(width, {(0,) * width: value})

    @classmethod
    def monomial(cls, width: int, exps: Iterable[int], coeff: int = 1) -> "Polynomial":
        return cls(width, {tuple(exps): coeff})

    @property
    def width(self) -> int:
        return self._width

    @property
    def terms(self) -> Mapping[tuple[int, ...], int]:
        """Read-only map from exponent vectors to coefficients."""
        return _Terms(self)

    @property
    def is_zero(self) -> bool:
        return not (self._terms if self._dominant is None else self._dominant)

    def _filled(self) -> dict[tuple[int, ...], int]:
        # the terms. A polynomial symmetric by construction writes every orbit
        # of its dominant table on first use, lex-descending: one assignment of
        # a complete dict, so threads that race agree.
        terms = self._terms
        if terms is None:
            width = self._width
            terms = {}
            for alpha, coeff in self._dominant.items():
                terms.update(dict.fromkeys(_orbit(alpha + (0,) * (width - len(alpha))), coeff))
            terms = dict(sorted(terms.items(), reverse=True))
            self._terms = terms
        return terms

    def _key(self, exps: Iterable[int]) -> tuple[int, ...]:
        key = tuple(exps)
        if len(key) != self._width:
            raise WidthMismatchError(f"exponent vector {key} does not have width {self._width}")
        return _ints("exponent", key)

    def coefficient(self, exps: Iterable[int]) -> int:
        return self._filled().get(self._key(exps), 0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in lexicographically descending exponent order."""
        terms = self._filled()
        if self._dominant is not None:  # filled from the dominant table, already in this order
            return list(terms.items())
        return sorted(terms.items(), key=lambda item: item[0], reverse=True)

    def leading_term(self) -> tuple[tuple[int, ...], int]:
        """Lexicographically greatest exponent vector and its coefficient."""
        # an exponent vector is lex-greatest in its orbit when weakly decreasing,
        # so a dominant table holds the leading term; partitions of one size
        # compare like their padded exponent vectors
        table = self._terms if self._dominant is None else self._dominant
        if not table:
            raise ValueError("the zero polynomial has no leading term")
        key = max(table)
        return key + (0,) * (self._width - len(key)), table[key]

    def is_homogeneous(self) -> bool:
        return len(set(map(sum, self._filled()))) <= 1

    def is_symmetric(self) -> bool:
        """Invariance under every permutation of the variables.

        The swap (x1 x2) and the cycle (x1 x2 ... xN) generate S_N. The
        check is that each maps every stored exponent to a stored one with
        the same coefficient: an injective map of the finite support into
        itself is onto, so the polynomial is invariant under both.
        """
        width, terms = self._width, self._filled()
        if width < 2:
            return True
        coeffs = list(terms.values())
        cycle = itemgetter(*range(1, width), 0)
        swap = itemgetter(1, 0, *range(2, width))
        return all(list(map(terms.get, map(move, terms))) == coeffs for move in (cycle, swap))

    def _check_width(self, other: "Polynomial") -> None:
        if self._width != other._width:
            raise WidthMismatchError(f"widths differ: {self._width} vs {other._width}")

    def _coerce(self, value) -> "Polynomial | None":
        if isinstance(value, Polynomial):
            return value
        if _scalar(value):
            return Polynomial.constant(self._width, value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_width(other)
        terms = dict(self._filled())
        get = terms.get
        for key, coeff in other._filled().items():
            terms[key] = get(key, 0) + coeff
        return Polynomial._from_terms(self._width, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._from_terms(self._width, {key: -c for key, c in self._filled().items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        """Product with a polynomial of the same width, or with an integer.

        Two polynomials symmetric and homogeneous by construction take the
        orbit route, :meth:`_orbit_product`. Any other pair takes the pair
        loop: one tuple-add per pair of terms, the product's terms in order
        of first appearance, zero coefficients dropped once at the end. No
        workload takes the loop; the tests keep it as the orbit route's
        reference.
        """
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_width(other)
        if self._dominant is not None and other._dominant is not None:
            return self._orbit_product(other)
        terms: dict[tuple[int, ...], int] = {}
        get = terms.get
        right = other._filled().items()
        for e1, c1 in self._filled().items():
            for e2, c2 in right:
                key = tuple(map(add, e1, e2))
                terms[key] = get(key, 0) + c1 * c2
        return Polynomial._from_terms(self._width, terms)

    __rmul__ = __mul__

    def _orbit_product(self, other: "Polynomial") -> "Polynomial":
        """Product of two polynomials symmetric and homogeneous by construction.

        The product of degree d = d1 + d2 is symmetric, so it is fixed by its
        coefficients at the weakly decreasing exponents alpha, and
        c_alpha = sum over beta <= alpha with |beta| = d1 of A[beta] * B[alpha - beta].
        Both operands are symmetric too, so each factor is read from their
        dominant tables at the sorted exponent, from :func:`_split_keys`. The
        product keeps only those c_alpha; its orbits are written on first use.
        Each cached table entry holds at most the degree-d monomials in
        len(alpha) variables. An operand's degree is the size of any of its keys.
        """
        if not (self._dominant and other._dominant):
            return Polynomial._symmetric(self._width, {})
        width, low = self._width, sum(next(iter(self._dominant)))
        degree = low + sum(next(iter(other._dominant)))
        left, right = self._dominant.get, other._dominant.get
        dominant = {
            alpha: sum(
                m * left(beta, 0) * right(gamma, 0) for beta, gamma, m in _split_keys(alpha, low)
            )
            for alpha in _partitions_below((degree,) if degree else (), width)
        }
        return Polynomial._symmetric(width, dominant)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._width == other._width and self._filled() == other._filled()

    __hash__ = None  # equality is structural over a dict; not hashable

    def __repr__(self):
        return f"Polynomial({self._width}, {dict(self.sorted_terms())})"

    def __str__(self):
        return format_polynomial(self)


def _scalar(value) -> bool:
    """True for an integer that scales a polynomial: an ``int``, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


class _Terms(Mapping):
    """Read-only view of a polynomial's terms, in stored order.

    Every read but the length goes to the stored dict, filling the orbits
    of a dominant table first; the length reads the dominant table while
    it is unfilled.
    """

    __slots__ = ("_poly",)

    def __init__(self, poly: Polynomial):
        self._poly = poly

    def __len__(self) -> int:
        poly = self._poly
        if poly._terms is None:
            return sum(_orbit_size(alpha, poly._width) for alpha in poly._dominant)
        return len(poly._terms)

    def __getitem__(self, exps) -> int:
        return self._poly._filled()[exps]

    def __iter__(self):
        return iter(self._poly._filled())

    def items(self):
        return self._poly._filled().items()

    def values(self):
        return self._poly._filled().values()


def _orbit(alpha: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every distinct rearrangement of ``alpha``, lex-descending.

    Knuth's Algorithm L run downward (TAOCP 7.2.1.2): from the weakly
    decreasing rearrangement, each next vector takes the weakly increasing
    tail, swaps the entry just left of it with the rightmost smaller entry
    in it, then reverses the tail. No vector repeats and nothing recurses
    over the width. Nothing is kept: the only caller, ``Polynomial._filled``,
    runs once per value and stores what it writes.
    """
    exps = sorted(alpha, reverse=True)
    orbit = [tuple(exps)]
    last = len(exps) - 1
    while True:
        j = last - 1
        while j >= 0 and exps[j] <= exps[j + 1]:
            j -= 1
        if j < 0:
            return tuple(orbit)
        i = last
        while exps[i] >= exps[j]:
            i -= 1
        exps[j], exps[i] = exps[i], exps[j]
        exps[j + 1:] = exps[:j:-1]
        orbit.append(tuple(exps))


def _orbit_size(alpha: tuple[int, ...], width: int) -> int:
    """Number of distinct rearrangements of the partition ``alpha`` padded to ``width``."""
    # the zeros' own factorial cancels, so nothing grows with the width but the result
    return perm(width, len(alpha)) // prod(factorial(m) for m in Counter(alpha).values())


@lru_cache(maxsize=1024)
def _split_keys(
    alpha: tuple[int, ...], low: int
) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """The splits ``alpha = beta + gamma`` with ``|beta| = low``, as sorted partition pairs.

    ``alpha`` is a partition, and ``beta`` runs over the vectors with
    ``0 <= beta <= alpha`` entrywise. Each split gives ``beta`` and ``gamma``
    sorted weakly decreasing, zeros stripped; equal pairs are merged, with
    their count. The betas are the walk :func:`partitions._capped_vectors`
    capped by ``alpha``, in its order. An entry holds at most one triple per
    monomial of degree |alpha| in len(alpha) variables.
    """
    counts: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for beta in _capped_vectors(alpha, low):
        pair = (
            tuple(sorted(filter(None, beta), reverse=True)),
            tuple(sorted(filter(None, map(sub, alpha, beta)), reverse=True)),
        )
        counts[pair] = counts.get(pair, 0) + 1
    return tuple((beta, gamma, m) for (beta, gamma), m in counts.items())


def format_polynomial(poly: Polynomial) -> str:
    """Render with terms in lex-descending exponent order.

    Each term prints as ``coeff * x1^a1 x2^a2 ...`` with zero-exponent
    factors omitted and exponent one written bare; the zero polynomial
    is ``0``.
    """
    if poly.is_zero:
        return "0"
    chunks = []
    for exps, coeff in poly.sorted_terms():
        factors = []
        for i, e in enumerate(exps):
            if e == 0:
                continue
            factors.append(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}")
        chunks.append(f"{coeff} * " + " ".join(factors) if factors else str(coeff))
    return " + ".join(chunks)
