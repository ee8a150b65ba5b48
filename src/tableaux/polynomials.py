"""Sparse multivariate polynomials with exact integer coefficients."""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from functools import lru_cache
from itertools import combinations, groupby
from math import factorial, prod
from typing import Iterable

from .partitions import _partitions_below


class WidthMismatchError(ValueError):
    """Polynomials over different variable counts were combined."""


class Polynomial:
    """Finite map from fixed-width exponent vectors to integer coefficients.

    Immutable. Zero coefficients are never stored. The variable count
    (``width``) is fixed per polynomial and checked on every binary
    operation.

    Each exponent vector is stored packed into one integer, its digits in
    base ``base`` (larger than every stored exponent) with x1 the most
    significant, so packed keys order like their exponent vectors. Two
    equal polynomials may hold different bases; operations bring both
    operands to a common one. Tuple keys are a view unpacked on first use.

    A polynomial symmetric and homogeneous of degree ``d`` by construction
    (a Schur polynomial, or a product of two such) stores only its
    dominant table: its coefficient at each partition of ``d`` into at most
    ``width`` parts, keyed by the partition's tuple without zeros. Its
    length, leading term and zero test read that table; the first read of
    a monomial writes every orbit into the packed terms, in base ``d + 1``
    and lex-descending order. Products of two of them take the orbit route
    of :meth:`__mul__`. Nothing else is built this way, whatever its terms.
    """

    __slots__ = ("_width", "_base", "_packed", "_view", "_dominant")

    def __init__(self, width: int, terms: Mapping[Iterable[int], int] | None = None):
        if not isinstance(width, int) or isinstance(width, bool):
            raise TypeError(f"width must be an integer, got {width!r}")
        if width < 0:
            raise ValueError(f"width must be nonnegative, got {width}")
        cleaned: dict[tuple[int, ...], int] = {}
        for exps, coeff in (terms or {}).items():
            key = tuple(exps)
            if len(key) != width:
                raise WidthMismatchError(f"exponent vector {key} does not have width {width}")
            if not all(isinstance(e, int) and not isinstance(e, bool) for e in key):
                raise TypeError(f"exponents must be integers, got {key}")
            if any(e < 0 for e in key):
                raise ValueError(f"exponents must be nonnegative, got {key}")
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise TypeError(f"coefficients must be integers, got {coeff!r}")
            if coeff != 0:
                cleaned[key] = coeff
        base = max(map(max, cleaned), default=0) + 1 if width else 1
        self._width = width
        self._base = base
        self._packed = {_pack(exps, base): coeff for exps, coeff in cleaned.items()}
        self._view = cleaned
        self._dominant = None

    @classmethod
    def _from_packed(cls, width: int, base: int, packed: dict[int, int]) -> "Polynomial":
        # internal: keys packed in ``base`` as above; zero coefficients drop here.
        if 0 in packed.values():
            packed = {key: c for key, c in packed.items() if c}
        poly = object.__new__(cls)
        poly._width = width
        poly._base = base
        poly._packed = packed
        poly._view = None
        poly._dominant = None
        return poly

    @classmethod
    def _symmetric(
        cls, width: int, degree: int, dominant: dict[tuple[int, ...], int]
    ) -> "Polynomial":
        # internal: symmetric and homogeneous of ``degree`` by construction;
        # ``dominant`` maps partitions of ``degree`` into at most ``width``
        # parts, as tuples without zeros, to their coefficients; zero
        # coefficients drop here.
        poly = object.__new__(cls)
        poly._width = width
        poly._base = degree + 1
        poly._packed = None
        poly._view = None
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
        return not (self._packed if self._dominant is None else self._dominant)

    def _filled(self) -> dict[int, int]:
        # the packed terms. A polynomial symmetric by construction writes every
        # orbit of its dominant table on first use, lex-descending, like the view
        # below: one assignment of a complete dict, so threads that race agree.
        packed = self._packed
        if packed is None:
            width, base = self._width, self._base
            packed = {}
            for alpha, coeff in self._dominant.items():
                padded = alpha + (0,) * (width - len(alpha))
                packed.update(dict.fromkeys(_orbit_keys(padded, base), coeff))
            packed = dict(sorted(packed.items(), reverse=True))
            self._packed = packed
        return packed

    def _tuples(self) -> dict[tuple[int, ...], int]:
        # the unpacked view, built once; safe to keep since the polynomial never changes.
        if self._view is None:
            packed = self._filled()
            self._view = dict(zip(_unpacked(list(packed), self._width, self._base), packed.values()))
        return self._view

    def _term_count(self) -> int:
        # the number of terms, read from the dominant table while it is unfilled
        packed = self._packed
        if packed is None:
            return sum(_orbit_size(alpha, self._width) for alpha in self._dominant)
        return len(packed)

    def coefficient(self, exps: Iterable[int]) -> int:
        exps = tuple(exps)
        if not all(isinstance(e, int) and not isinstance(e, bool) for e in exps):
            raise TypeError(f"exponents must be integers, got {exps}")
        if len(exps) != self._width or not all(0 <= e < self._base for e in exps):
            return 0
        return self._filled().get(_pack(exps, self._base), 0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in lexicographically descending exponent order."""
        return sorted(self._tuples().items(), key=lambda item: item[0], reverse=True)

    def leading_term(self) -> tuple[tuple[int, ...], int]:
        """Lexicographically greatest exponent vector and its coefficient."""
        # an exponent vector is lex-greatest in its orbit when weakly decreasing,
        # so a dominant table holds the leading term; partitions of one size
        # compare like their padded exponent vectors
        dominant = self._dominant
        table = self._packed if dominant is None else dominant
        if not table:
            raise ValueError("the zero polynomial has no leading term")
        key = max(table)
        if dominant is None:
            return _unpacked([key], self._width, self._base)[0], table[key]
        return key + (0,) * (self._width - len(key)), table[key]

    def is_homogeneous(self) -> bool:
        return len({sum(exps) for exps in self._tuples()}) <= 1

    def is_symmetric(self) -> bool:
        """Invariance under every permutation of the variables.

        The swap (x1 x2) and the cycle (x1 x2 ... xN) generate S_N. The
        check is that each maps every stored exponent to a stored one with
        the same coefficient: an injective map of the finite support into
        itself is onto, so the polynomial is invariant under both. On a
        packed key the cycle moves the top digit to the bottom and the swap
        exchanges the two top digits.
        """
        width, base, packed = self._width, self._base, self._filled()
        if width < 2:
            return True
        top = base ** (width - 1)
        second = top // base
        keys = list(packed)
        coeffs = list(packed.values())
        firsts = [key // top for key in keys]
        rests = [key - d * top for key, d in zip(keys, firsts)]
        get = packed.get
        if list(map(get, [rest * base + d for rest, d in zip(rests, firsts)])) != coeffs:
            return False
        shift = top - second
        swapped = [key + (rest // second - d) * shift for key, rest, d in zip(keys, rests, firsts)]
        return list(map(get, swapped)) == coeffs

    def _check_width(self, other: "Polynomial") -> None:
        if self._width != other._width:
            raise WidthMismatchError(f"widths differ: {self._width} vs {other._width}")

    def _coerce(self, value) -> "Polynomial | None":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, int):
            return Polynomial.constant(self._width, value)
        return None

    def _rebased(self, base: int) -> dict[int, int]:
        """The packed terms with keys in ``base``, at least this polynomial's own.

        In its own base this is the stored dict, so callers must not mutate it.
        """
        packed = self._filled()
        if base == self._base:
            return packed
        keys = [0] * len(packed)
        for digits in _digit_columns(list(packed), self._width, self._base):
            keys = [key * base + d for key, d in zip(keys, digits)]
        return dict(zip(keys, packed.values()))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_width(other)
        base = max(self._base, other._base)
        terms = dict(self._rebased(base))
        get = terms.get
        for key, coeff in other._rebased(base).items():
            terms[key] = get(key, 0) + coeff
        return Polynomial._from_packed(self._width, base, terms)

    __radd__ = __add__

    def __neg__(self):
        negated = {key: -c for key, c in self._filled().items()}
        return Polynomial._from_packed(self._width, self._base, negated)

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
        if isinstance(other, int) and not isinstance(other, bool):
            scaled = {key: c * other for key, c in self._filled().items()}
            return Polynomial._from_packed(self._width, self._base, scaled)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_width(other)
        if self._dominant is not None and other._dominant is not None:
            return self._orbit_product(other)
        # Every exponent of the product is at most the sum of the operands'
        # largest, so in this base adding keys never carries and multiplying
        # monomials is adding integers; zero coefficients drop once, at the end.
        base = self._base + other._base - 1
        left = list(self._rebased(base).items())
        right = list(other._rebased(base).items())
        packed: dict[int, int] = {}
        get = packed.get
        for k1, c1 in left:
            for k2, c2 in right:
                key = k1 + k2
                packed[key] = get(key, 0) + c1 * c2
        return Polynomial._from_packed(self._width, base, packed)

    __rmul__ = __mul__

    def _orbit_product(self, other: "Polynomial") -> "Polynomial":
        """Product of two polynomials symmetric and homogeneous by construction.

        The product of degree d = d1 + d2 is symmetric, so it is fixed by its
        coefficients at the weakly decreasing exponents alpha, and
        c_alpha = sum over beta <= alpha with |beta| = d1 of A[beta] * B[alpha - beta].
        Both operands are symmetric too, so each factor is read from their
        dominant tables at the sorted exponent, from :func:`_split_keys`. The
        product keeps only those c_alpha; its orbits are written on first use,
        in base d + 1, the base the pair loop would use. Each cached table
        entry holds at most the degree-d monomials in len(alpha) variables.
        """
        width, low = self._width, self._base - 1
        degree = low + other._base - 1
        left, right = self._dominant.get, other._dominant.get
        dominant = {
            alpha: sum(
                m * left(beta, 0) * right(gamma, 0) for beta, gamma, m in _split_keys(alpha, low)
            )
            for alpha in _partitions_below((degree,) if degree else (), width)
        }
        return Polynomial._symmetric(width, degree, dominant)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self._width != other._width or len(self._filled()) != len(other._filled()):
            return False
        base = max(self._base, other._base)
        return self._rebased(base) == other._rebased(base)

    __hash__ = None  # equality is structural over a dict; not hashable

    def __repr__(self):
        return f"Polynomial({self._width}, {dict(self.sorted_terms())})"

    def __str__(self):
        return format_polynomial(self)


class _Terms(Mapping):
    """Tuple-keyed, read-only view of a polynomial's terms, in stored order.

    Lookups and values read the packed terms, and the length the dominant
    table while it is unfilled; iterating unpacks every key once, into the
    polynomial's cached view.
    """

    __slots__ = ("_poly",)

    def __init__(self, poly: Polynomial):
        self._poly = poly

    def __len__(self) -> int:
        return self._poly._term_count()

    def __getitem__(self, exps) -> int:
        coeff = self._poly.coefficient(exps)
        if not coeff:
            raise KeyError(exps)
        return coeff

    def __iter__(self):
        return iter(self._poly._tuples())

    def items(self):
        return self._poly._tuples().items()

    def values(self):
        return self._poly._filled().values()


def _pack(exps: tuple[int, ...], base: int) -> int:
    key = 0
    for e in exps:
        key = key * base + e
    return key


@lru_cache(maxsize=1024)
def _orbit_keys(alpha: tuple[int, ...], base: int) -> tuple[int, ...]:
    """Packed keys in ``base`` of every distinct rearrangement of ``alpha``.

    Positions are chosen for one distinct nonzero value at a time, the last
    value's by summing place values over combinations, so the work is a loop
    over the distinct values and never over the width. An entry holds at
    most the monomials of degree |alpha| in len(alpha) variables.
    """
    width = len(alpha)
    places = [base ** (width - 1 - p) for p in range(width)]
    runs = [(value, len(list(run))) for value, run in groupby(alpha) if value]
    if not runs:
        return (0,)
    partial = [(0, tuple(range(width)))]  # (key so far, free positions)
    for value, count in runs[:-1]:
        partial = [
            (
                key + value * sum(places[p] for p in chosen),
                tuple(p for p in free if p not in chosen),
            )
            for key, free in partial
            for chosen in combinations(free, count)
        ]
    value, count = runs[-1]
    return tuple(
        key + step
        for key, free in partial
        for step in map(sum, combinations([value * places[p] for p in free], count))
    )


def _orbit_size(alpha: tuple[int, ...], width: int) -> int:
    """Number of distinct rearrangements of the partition ``alpha`` padded to ``width``."""
    repeats = prod(factorial(m) for m in Counter(alpha).values())
    return factorial(width) // (factorial(width - len(alpha)) * repeats)


@lru_cache(maxsize=1024)
def _split_keys(
    alpha: tuple[int, ...], low: int
) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """The splits ``alpha = beta + gamma`` with ``|beta| = low``, as sorted partition pairs.

    ``alpha`` is a partition, and ``beta`` runs over the vectors with
    ``0 <= beta <= alpha`` entrywise. Each split gives ``beta`` and ``gamma``
    sorted weakly decreasing, zeros stripped; equal pairs are merged, with
    their count. The betas are built one part of ``alpha`` at a time,
    keeping only prefixes that can still reach ``low``. An entry holds at
    most one triple per monomial of degree |alpha| in len(alpha) variables.
    """
    room = sum(alpha)
    betas = [((), low)]  # (prefix, boxes still to place)
    for a in alpha:
        room -= a
        betas = [
            (prefix + (b,), left - b)
            for prefix, left in betas
            for b in range(max(0, left - room), min(a, left) + 1)
        ]
    counts: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for beta, _ in betas:
        gamma = [a - b for a, b in zip(alpha, beta)]
        pair = (
            tuple(sorted(filter(None, beta), reverse=True)),
            tuple(sorted(filter(None, gamma), reverse=True)),
        )
        counts[pair] = counts.get(pair, 0) + 1
    return tuple((beta, gamma, m) for (beta, gamma), m in counts.items())


def _unpacked(keys: list[int], width: int, base: int) -> list[tuple[int, ...]]:
    """Exponent vectors of packed ``keys``, in their order."""
    if width:
        return list(zip(*_digit_columns(keys, width, base)))
    return [()] * len(keys)


def _digit_columns(keys: list[int], width: int, base: int) -> list[list[int]]:
    """Exponents of packed ``keys``, one list per variable, x1 first.

    Digits are read one variable at a time across all keys, from xN up.
    """
    columns = []
    for _ in range(width):
        columns.append([key % base for key in keys])
        keys = [key // base for key in keys]
    columns.reverse()
    return columns


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
