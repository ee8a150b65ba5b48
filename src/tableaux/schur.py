"""Schur polynomials and expansion of symmetric polynomials in the Schur basis."""

from __future__ import annotations

from functools import lru_cache

from .fillings import enumerate_ssyt
from .partitions import Partition
from .polynomials import Polynomial


class NotSymmetricError(ValueError):
    """Schur-basis expansion met a polynomial that is not symmetric."""


class NotHomogeneousError(ValueError):
    """Schur-basis expansion met mixed total degrees."""


@lru_cache(maxsize=1024)
def schur_polynomial(shape: Partition, width: int) -> Polynomial:
    """Generating polynomial of the semistandard fillings of ``shape``.

    Every filling with entries at most ``width`` contributes the
    monomial whose exponent vector is the filling's weight. Zero when
    the shape has more rows than ``width``; the empty shape gives the
    constant 1.
    """
    if width < 0:
        raise ValueError(f"width must be nonnegative, got {width}")
    if width == 0:
        return Polynomial(0, {(): 1} if shape.size == 0 else None)
    terms: dict[tuple[int, ...], int] = {}
    for filling in enumerate_ssyt(shape, width):
        exps = filling.weight(width)
        terms[exps] = terms.get(exps, 0) + 1
    return Polynomial(width, terms)


def schur_expand(poly: Polynomial) -> dict[Partition, int]:
    """Coefficients of ``poly`` written in the Schur basis of its width.

    Peels the lexicographically leading term: for a symmetric
    homogeneous polynomial the leading exponent vector is weakly
    decreasing, hence a partition ``nu``; subtract ``coeff * s_nu`` and
    repeat. The leading exponent strictly decreases each round, so the
    loop terminates, and a leading exponent that fails to be weakly
    decreasing exposes a non-symmetric input. Negative coefficients are
    returned as data, never clamped.
    """
    if not poly.is_homogeneous():
        raise NotHomogeneousError("expansion requires a homogeneous polynomial")
    result: dict[Partition, int] = {}
    residual = poly
    while not residual.is_zero:
        exps, coeff = residual.leading_term()
        if any(exps[i] < exps[i + 1] for i in range(len(exps) - 1)):
            raise NotSymmetricError(f"leading exponent {exps} is not weakly decreasing")
        shape = Partition(exps)
        result[shape] = coeff
        residual = residual - schur_polynomial(shape, poly.width) * coeff
    return result
