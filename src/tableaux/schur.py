"""Schur polynomials and expansion of symmetric polynomials in the Schur basis."""

from __future__ import annotations

from functools import lru_cache
from operator import ge, sub

from .partitions import Partition, _capped_vectors, _count, _partitions_below, _typed
from .polynomials import Polynomial


class NotSymmetricError(ValueError):
    """Schur-basis expansion met a polynomial that is not symmetric."""


class NotHomogeneousError(ValueError):
    """Schur-basis expansion met mixed total degrees."""


def schur_polynomial(shape: Partition, width: int) -> Polynomial:
    """Generating polynomial of the semistandard fillings of ``shape``.

    Every filling with entries at most ``width`` contributes the
    monomial whose exponent vector is the filling's weight. Zero when
    the shape has more rows than ``width``; the empty shape gives the
    constant 1. Terms are stored in lex-descending exponent order.

    Built from s_shape = sum over partitions alpha of K_{shape, alpha}
    m_alpha (Macdonald I.6), each Kostka number from the level pass of
    :func:`_kostka`, for every partition alpha of at most ``width`` parts
    lex-below ``shape`` (K_{shape, alpha} is zero for the others, and for
    every alpha when ``shape`` has more rows). Those alpha are one entry of
    the walk table ``partitions._partitions_below``. Only the strips a
    pass reads, entries of the table :func:`_strip_removals`, are kept
    between calls, and they hold no coefficient. The result is symmetric
    of degree |shape| by construction and keeps only these K_{shape, alpha},
    keyed by alpha: the table that products (the orbit route of
    ``Polynomial.__mul__``) and :func:`schur_expand` read. Each alpha is
    written to all its rearrangements on the first read of a monomial.
    :func:`enumerate_ssyt` stays an independent route. Checked arguments key
    the bounded table :func:`_schur`; ``cache_info`` and ``cache_clear`` are its.
    """
    _typed("shape", shape, Partition)
    return _schur(shape.parts, _count("width", width))


@lru_cache(maxsize=1024)
def _schur(lam: tuple[int, ...], width: int) -> Polynomial:
    """The Schur polynomial of the partition ``lam`` in ``width`` variables, arguments checked."""
    alphas = _partitions_below(lam, width) if len(lam) <= width else ()
    return Polynomial._symmetric(width, {alpha: _kostka(lam, alpha) for alpha in alphas})


schur_polynomial.cache_info = _schur.cache_info
schur_polynomial.cache_clear = _schur.cache_clear


def _kostka(shape: tuple[int, ...], weight: tuple[int, ...]) -> int:
    """Number of semistandard fillings of ``shape`` with content ``weight``.

    The entries equal to the last letter k = len(weight) form a horizontal
    strip ``nu / mu`` of ``weight[-1]`` boxes (Macdonald I (5.11)), so
    K_{nu, rho} = sum of K_{mu, rho[:-1]} over those ``mu``. One pass per
    letter, from the last down, carries the level: each shape still to fill
    with the letters so far, and the number of ways to reach it. Each list
    of ``mu`` is one read of the table :func:`_strip_removals`. ``weight``
    may hold zero parts, and nothing recurses over its length.
    """
    level = {shape: 1}
    for k in range(len(weight), 0, -1):
        below: dict[tuple[int, ...], int] = {}
        get = below.get
        for nu, count in level.items():
            for mu in _strip_removals(nu, k, weight[k - 1]):
                below[mu] = get(mu, 0) + count
        level = below
    return level.get((), 0)


@lru_cache(maxsize=8192)
def _strip_removals(nu: tuple[int, ...], k: int, boxes: int) -> tuple[tuple[int, ...], ...]:
    """Shapes ``mu`` of at most ``k - 1`` rows with ``nu / mu`` a horizontal ``boxes``-strip.

    Those are the ``mu`` interlacing ``nu``, ``nu[i + 1] <= mu[i] <= nu[i]``,
    with ``|mu| = |nu| - boxes``. None exist when ``nu`` has more than ``k``
    rows: a column of ``nu`` would lose two boxes. Row ``k`` of ``nu``, if
    any, loses all its boxes; the rows above it lose the vectors ``t`` of
    :func:`partitions._capped_vectors`, capped by the row slacks
    ``nu[i] - nu[i + 1]``, and ``mu = nu - t`` with zeros stripped, in
    the walk's order.

    A bounded table: one entry holds every such ``mu`` for one
    ``(nu, k, boxes)`` as a tuple, shared by the Kostka passes of every
    shape and weight that reach that node.
    """
    if len(nu) > k:
        return ()
    rows = min(len(nu), k - 1)
    slack = tuple(map(sub, nu[:rows], nu[1:] + (0,)))
    removals = _capped_vectors(slack, boxes - sum(nu[rows:]))
    return tuple(tuple(filter(None, map(sub, nu, t))) for t in removals)


def schur_expand(poly: Polynomial) -> dict[Partition, int]:
    """Coefficients of ``poly`` written in the Schur basis of its width.

    Peels leading terms: the leading exponent vector ``nu`` of a symmetric
    homogeneous polynomial is weakly decreasing, hence a partition;
    subtract ``coeff * s_nu`` and repeat. A symmetric polynomial is fixed
    by its coefficients at partitions, its dominant table, so the
    elimination runs on that table alone, over the partitions lex-below
    the lead: one entry of the walk table ``partitions._partitions_below``,
    read as it is. The residual is a copy of the table, so the operand's own
    table is never written. Each ``nu`` with a nonzero residual subtracts
    ``coeff * K_{nu, alpha}`` at every entry ``alpha`` of the dominant table
    ``_schur(nu, width)``: each such ``alpha`` is a partition lex-below
    ``nu`` of at most ``width`` parts, so the walk reaches it later, and
    ``nu``'s own entry (K_{nu, nu} = 1) lands after ``nu`` has been read.
    Partitions come out in lex-descending order, only the result's keys built
    unchecked by ``Partition._trusted``: every ``nu`` of the walk is a weakly
    decreasing tuple without zeros. Negative coefficients are returned as
    data, never clamped.

    A Schur polynomial or a product of such is symmetric and homogeneous by
    construction: its dominant table is read as it is, and no monomial
    outside it is written. Every other polynomial is checked for
    homogeneity and then for symmetry on every stored term, and its table
    is read from its terms at weakly decreasing exponents.

    Raises :class:`NotHomogeneousError` for mixed total degrees, before
    :class:`NotSymmetricError` when both apply.
    """
    _typed("poly", poly, Polynomial)
    dominant = poly._dominant
    if dominant is None:
        if not poly.is_homogeneous():
            raise NotHomogeneousError("expansion requires a homogeneous polynomial")
        if not poly.is_symmetric():
            raise NotSymmetricError("polynomial is not invariant under permuting its variables")
        dominant = {
            tuple(filter(None, exps)): coeff
            for exps, coeff in poly._filled().items()
            if all(map(ge, exps, exps[1:]))
        }
    if not dominant:
        return {}
    residual = dict(dominant)
    result: dict[Partition, int] = {}
    for nu in _partitions_below(max(dominant), poly.width):
        coeff = residual.get(nu)
        if not coeff:
            continue
        result[Partition._trusted(nu)] = coeff
        for alpha, count in _schur(nu, poly.width)._dominant.items():
            residual[alpha] = residual.get(alpha, 0) - coeff * count
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
