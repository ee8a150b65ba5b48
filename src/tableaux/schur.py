"""Schur polynomials and expansion of symmetric polynomials in the Schur basis."""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
from math import factorial, prod
from typing import Iterator

from .partitions import Partition
from .polynomials import Polynomial, _dominant_exponents_below, _orbit_keys, _pack


class NotSymmetricError(ValueError):
    """Schur-basis expansion met a polynomial that is not symmetric."""


class NotHomogeneousError(ValueError):
    """Schur-basis expansion met mixed total degrees."""


@lru_cache(maxsize=1024, typed=True)
def schur_polynomial(shape: Partition, width: int) -> Polynomial:
    """Generating polynomial of the semistandard fillings of ``shape``.

    Every filling with entries at most ``width`` contributes the
    monomial whose exponent vector is the filling's weight. Zero when
    the shape has more rows than ``width``; the empty shape gives the
    constant 1. Terms are stored in lex-descending exponent order.

    Built one orbit at a time: s_shape = sum over partitions alpha of
    K_{shape, alpha} m_alpha (Macdonald I.6), each Kostka number from the
    horizontal-strip recursion of :func:`_kostka` and written to every
    rearrangement of alpha. The result is recorded as symmetric of degree
    |shape|, so products of Schur polynomials take the orbit route of
    ``Polynomial.__mul__``. :func:`enumerate_ssyt` stays an independent
    route. The orbit table cached per alpha holds at most the monomials of
    degree |shape| in ``width`` variables.
    """
    if not isinstance(width, int) or isinstance(width, bool):
        raise TypeError(f"width must be an integer, got {width!r}")
    if width < 0:
        raise ValueError(f"width must be nonnegative, got {width}")
    # Every s_shape is packed in base |shape| + 1, zero included: no exponent
    # exceeds the size, and schur_expand reads Kostka numbers in this base.
    base = shape.size + 1
    terms: dict[int, int] = {}
    if shape.nrows <= width:
        memo: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {((), ()): 1}
        for alpha in _dominant_exponents_below(shape.parts + (0,) * (width - shape.nrows)):
            count = _kostka(shape.parts, tuple(a for a in alpha if a), memo)
            if count:
                terms.update(dict.fromkeys(_orbit_keys(alpha, base), count))
    # packed keys order like their exponent vectors, so this is lex-descending
    terms = dict(sorted(terms.items(), reverse=True))
    return Polynomial._from_packed(width, base, terms, shape.size)


def _kostka(
    shape: tuple[int, ...],
    weight: tuple[int, ...],
    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], int],
) -> int:
    """Number of semistandard fillings of ``shape`` with content ``weight``.

    The entries equal to the last letter k = len(weight) form a horizontal
    strip ``nu / mu`` of ``weight[-1]`` boxes (Macdonald I (5.11)), so
    K_{nu, rho} = sum of K_{mu, rho[:-1]} over those ``mu``. ``weight`` has
    no zero parts and ``memo``, seeded with ``K_{(), ()} = 1``, is shared
    by the calls for one shape. An explicit stack stands in for recursion,
    whose depth would be the number of parts of ``weight``.
    """
    stack = [(shape, weight)]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        nu, rho = node
        size = sum(nu) - rho[-1]
        below = [(mu, rho[:-1]) for mu in _strip_removals(nu, len(rho)) if sum(mu) == size]
        missing = [child for child in below if child not in memo]
        if missing:
            stack.extend(missing)
        else:
            memo[node] = sum(memo[child] for child in below)
            stack.pop()
    return memo[(shape, weight)]


def _strip_removals(nu: tuple[int, ...], k: int) -> Iterator[tuple[int, ...]]:
    """Shapes ``mu`` of at most ``k - 1`` rows with ``nu / mu`` a horizontal strip.

    Those are the ``mu`` interlacing ``nu``: ``nu[i + 1] <= mu[i] <= nu[i]``.
    None exist when ``nu`` has more than ``k`` rows: a column of ``nu`` would
    lose two boxes.
    """
    if len(nu) > k:
        return
    rows = min(len(nu), k - 1)
    below = nu[1:] + (0,)
    for mu in product(*(range(below[i], nu[i] + 1) for i in range(rows))):
        yield tuple(p for p in mu if p)


def schur_expand(poly: Polynomial) -> dict[Partition, int]:
    """Coefficients of ``poly`` written in the Schur basis of its width.

    Checks symmetry on every stored term, then peels leading terms: the
    leading exponent vector ``nu`` of a symmetric homogeneous polynomial
    is weakly decreasing, hence a partition; subtract ``coeff * s_nu`` and
    repeat. A symmetric polynomial is fixed by its coefficients at weakly
    decreasing exponents, so the elimination runs on those alone. They
    are packed once per call, in base ``degree + 1``, and each Kostka
    number it subtracts is one lookup of such a key in the packed terms of
    the cached ``schur_polynomial(nu, width)``, which is built in that
    base. Partitions come out in lex-descending order. Negative
    coefficients are returned as data, never clamped.

    Raises :class:`NotHomogeneousError` for mixed total degrees, before
    :class:`NotSymmetricError` when both apply.
    """
    if not poly.is_symmetric():
        if not poly.is_homogeneous():
            raise NotHomogeneousError("expansion requires a homogeneous polynomial")
        raise NotSymmetricError("polynomial is not invariant under permuting its variables")
    if poly.is_zero:
        return {}
    lead, _ = poly.leading_term()
    candidates = list(_dominant_exponents_below(lead))
    # Candidate entries are at most lead[0], which is below the poly's base
    # and at most the degree; every s_nu of this degree is packed in degree + 1.
    base = sum(lead) + 1
    keys = [_pack(nu, base) for nu in candidates]
    own = keys if poly._base == base else [_pack(nu, poly._base) for nu in candidates]
    get = poly._packed.get
    residual = [get(key, 0) for key in own]
    # The support is a union of whole orbits. The lead is the greatest stored
    # exponent, so every orbit of its degree has its weakly decreasing member
    # among the candidates; their orbits fill the support exactly when no
    # other degree is present.
    orbits = sum(_orbit_size(nu) for nu, c in zip(candidates, residual) if c)
    if orbits != len(poly._packed):
        raise NotHomogeneousError("expansion requires a homogeneous polynomial")
    result: dict[Partition, int] = {}
    for i, nu in enumerate(candidates):
        coeff = residual[i]
        if not coeff:
            continue
        shape = Partition(nu)
        result[shape] = coeff
        kostka = schur_polynomial(shape, poly.width)._packed.get
        for j in range(i + 1, len(keys)):
            count = kostka(keys[j])
            if count:
                residual[j] -= coeff * count
    return result


def _product_expansion(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Schur expansion of ``s_lam * s_mu``, lex-descending.

    The product is taken in w = min(l(lam) + l(mu), lam_1 + mu_1)
    variables and loses no coefficient: c^nu_{lam mu} != 0 forces
    l(nu) <= l(lam) + l(mu) and nu_1 <= lam_1 + mu_1, and the expansion in
    w variables holds every nu of at most w rows. When lam_1 + mu_1 is the
    smaller, the conjugates are multiplied instead and each nu is
    conjugated back: omega(s_lam) = s_lam' (Macdonald I (3.8)).
    """
    width = lam.nrows + mu.nrows
    if lam.part(0) + mu.part(0) < width:
        dual = _product_expansion(lam.conjugate(), mu.conjugate())
        return dict(sorted(((nu.conjugate(), c) for nu, c in dual.items()),
                           key=lambda item: item[0].parts, reverse=True))
    return schur_expand(schur_polynomial(lam, width) * schur_polynomial(mu, width))


def _orbit_size(exps: tuple[int, ...]) -> int:
    """Number of distinct rearrangements of ``exps``."""
    return factorial(len(exps)) // prod(factorial(m) for m in Counter(exps).values())
