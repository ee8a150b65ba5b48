"""Sparse multivariate polynomials with exact integer coefficients."""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping


class WidthMismatchError(ValueError):
    """Polynomials over different variable counts were combined."""


class Polynomial:
    """Finite map from fixed-width exponent vectors to integer coefficients.

    Immutable. Zero coefficients are never stored, so equality of the
    term maps is equality of polynomials. The variable count (``width``)
    is fixed per polynomial and checked on every binary operation.
    """

    __slots__ = ("_width", "_terms")

    def __init__(self, width: int, terms: Mapping[Iterable[int], int] | None = None):
        if width < 0:
            raise ValueError(f"width must be nonnegative, got {width}")
        cleaned: dict[tuple[int, ...], int] = {}
        for exps, coeff in (terms or {}).items():
            key = tuple(exps)
            if len(key) != width:
                raise WidthMismatchError(f"exponent vector {key} does not have width {width}")
            if any(e < 0 for e in key):
                raise ValueError(f"exponents must be nonnegative, got {key}")
            if not isinstance(coeff, int):
                raise TypeError(f"coefficients must be integers, got {coeff!r}")
            if coeff != 0:
                cleaned[key] = coeff
        self._width = width
        self._terms = cleaned

    @classmethod
    def _raw(cls, width: int, terms: dict[tuple[int, ...], int]) -> "Polynomial":
        # internal: terms already canonical (right width, no zeros)
        poly = object.__new__(cls)
        poly._width = width
        poly._terms = terms
        return poly

    @classmethod
    def _unpacked(cls, width: int, base: int, packed: dict[int, int]) -> "Polynomial":
        # internal: keys are exponent vectors packed in base ``base`` with x1
        # the most significant digit, as by ``_pack``; zero coefficients drop
        # here. Digits are read one variable at a time across all keys, from xN up.
        kept = [(key, c) for key, c in packed.items() if c]
        keys = [key for key, _ in kept]
        digits = []
        for _ in range(width):
            digits.append([key % base for key in keys])
            keys = [key // base for key in keys]
        exps = zip(*reversed(digits)) if width else [()] * len(kept)
        return cls._raw(width, dict(zip(exps, [c for _, c in kept])))

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
        """Read-only view of the term map."""
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, exps: Iterable[int]) -> int:
        return self._terms.get(tuple(exps), 0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in lexicographically descending exponent order."""
        return sorted(self._terms.items(), key=lambda item: item[0], reverse=True)

    def leading_term(self) -> tuple[tuple[int, ...], int]:
        """Lexicographically greatest exponent vector and its coefficient."""
        if not self._terms:
            raise ValueError("the zero polynomial has no leading term")
        exps = max(self._terms)
        return exps, self._terms[exps]

    def is_homogeneous(self) -> bool:
        return len({sum(exps) for exps in self._terms}) <= 1

    def is_symmetric(self) -> bool:
        """Invariance under every adjacent variable swap (these generate S_N)."""
        for i in range(self._width - 1):
            for exps, coeff in self._terms.items():
                if exps[i] == exps[i + 1]:
                    continue
                swapped = list(exps)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                if self._terms.get(tuple(swapped)) != coeff:
                    return False
        return True

    def _check_width(self, other: "Polynomial") -> None:
        if self._width != other._width:
            raise WidthMismatchError(f"widths differ: {self._width} vs {other._width}")

    def _coerce(self, value) -> "Polynomial | None":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, int):
            return Polynomial.constant(self._width, value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_width(other)
        terms = dict(self._terms)
        for exps, coeff in other._terms.items():
            total = terms.get(exps, 0) + coeff
            if total:
                terms[exps] = total
            else:
                terms.pop(exps, None)
        return Polynomial._raw(self._width, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self._width, {e: -c for e, c in self._terms.items()})

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
        if isinstance(other, int):
            if other == 0:
                return Polynomial._raw(self._width, {})
            return Polynomial._raw(self._width, {e: c * other for e, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_width(other)
        width = self._width
        if not self._terms or not other._terms:
            return Polynomial._raw(width, {})
        # Exponent vectors become base-``base`` integers, x1 the most
        # significant digit. No exponent of the product exceeds ``base - 1``,
        # so adding keys never carries and multiplying monomials is adding
        # integers; zero coefficients are dropped once, on unpacking.
        base = _max_exponent(self._terms, width) + _max_exponent(other._terms, width) + 1
        left = [(_pack(e, base), c) for e, c in self._terms.items()]
        right = [(_pack(e, base), c) for e, c in other._terms.items()]
        packed: dict[int, int] = {}
        get = packed.get
        for k1, c1 in left:
            for k2, c2 in right:
                key = k1 + k2
                packed[key] = get(key, 0) + c1 * c2
        return Polynomial._unpacked(width, base, packed)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._width == other._width and self._terms == other._terms

    __hash__ = None  # equality is structural over a dict; not hashable

    def __repr__(self):
        return f"Polynomial({self._width}, {dict(self.sorted_terms())})"

    def __str__(self):
        return format_polynomial(self)


def _max_exponent(terms: dict[tuple[int, ...], int], width: int) -> int:
    return max(map(max, terms)) if width else 0


def _pack(exps: tuple[int, ...], base: int) -> int:
    key = 0
    for e in exps:
        key = key * base + e
    return key


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
