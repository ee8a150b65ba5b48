import inspect
import itertools
import random
import sys
from itertools import permutations

import pytest

from tableaux import (
    EMPTY,
    NotHomogeneousError,
    NotSymmetricError,
    Partition,
    Polynomial,
    partitions_of,
    schur_expand,
    schur_polynomial,
)
from tableaux.partitions import _partitions_below
from tableaux.schur import _kostka, _product_expansion, _schur, _strip_removals

class TestSchurPolynomial:
    def test_empty_shape_is_one(self):
        for width in (1, 2, 5):
            assert schur_polynomial(EMPTY, width) == Polynomial.constant(width, 1)

    def test_too_many_rows_gives_zero(self):
        assert schur_polynomial(Partition((1, 1, 1)), 2).is_zero

    def test_width_zero(self):
        assert schur_polynomial(EMPTY, 0) == Polynomial(0, {(): 1})
        assert schur_polynomial(Partition((1,)), 0).is_zero

    def test_single_column_is_elementary(self):
        poly = schur_polynomial(Partition((1, 1)), 3)
        assert poly == Polynomial(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})

    def test_terms_stored_lex_descending(self):
        # s_shape is homogeneous of degree |shape|, and its orbits are
        # written lex-descending
        for n in range(8):
            for shape in partitions_of(n):
                for width in range(9):
                    poly = schur_polynomial(shape, width)
                    assert all(sum(alpha) == n for alpha in poly._dominant), (shape, width)
                    # stored in the order sorted_terms returns
                    expected = sorted(poly.terms.items(), reverse=True)
                    assert list(poly.terms.items()) == expected == poly.sorted_terms()
                    # keys and values of the view keep the same order
                    assert list(zip(poly.terms, poly.terms.values())) == expected

    def test_long_row_in_one_variable(self):
        # no recursion over the 1200 boxes
        assert schur_polynomial(Partition((1200,)), 1) == Polynomial.monomial(1, (1200,))

    def test_one_box_in_many_variables(self):
        # no recursion over the 1500 widths
        poly = schur_polynomial(Partition((1,)), 1500)
        assert len(poly.terms) == 1500
        assert set(poly.terms.values()) == {1}

    def test_cache_is_bounded(self):
        assert schur_polynomial.cache_info().maxsize is not None
        # the public name counts the table's reads: two equal calls, one miss then one hit
        schur_polynomial.cache_clear()
        first = schur_polynomial(Partition((2, 1)), 3)
        assert schur_polynomial(Partition((2, 1)), 3) is first
        info = schur_polynomial.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        # a cached (λ, 1) answers for no bool: the width is checked before the table
        assert type(schur_polynomial(Partition((2, 1)), 1).width) is int
        with pytest.raises(TypeError, match="^width must be an integer, got True$"):
            schur_polynomial(Partition((2, 1)), True)

    def test_wide_builds_need_no_recursion(self):
        # a recursion over the 40 or 1500 variables would pass the lowered limit
        build = _schur.__wrapped__
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 25)
        try:
            one_box = build((1,), 1500)
            complete = build((4,), 40)
            # a weight of 300 parts: one level per letter
            column = build((1,) * 300, 300)
        finally:
            sys.setrecursionlimit(limit)
        assert column.terms == {(1,) * 300: 1}
        assert len(one_box.terms) == 1500
        # h_4 in 40 variables: every monomial of degree 4, once
        assert len(complete.terms) == 123410
        assert set(complete.terms.values()) == {1}


class TestKostka:
    def test_weight_order_does_not_matter(self):
        # K_{lambda, beta} = K_{lambda, alpha} for every rearrangement beta of alpha,
        # since s_lambda is symmetric; the builds pass in partitions only, so this
        # runs the level pass on weights with zeros and ascents, 40,504 of them
        checks = 0
        for n in range(8):
            for lam in partitions_of(n):
                for alpha in partitions_of(n):
                    expected = _kostka(lam.parts, alpha.parts)
                    padded = alpha.parts + (0,) * (7 - alpha.nrows)
                    for beta in set(permutations(padded)):
                        assert _kostka(lam.parts, beta) == expected, (lam, beta)
                        checks += 1
        assert checks == 40504


def horizontal_strip_reference(nu, k):
    """Every mu of at most k - 1 rows with nu / mu a horizontal strip, by brute force."""
    below = nu[1:] + (0,)
    found = []
    for n in range(sum(nu) + 1):
        for mu in partitions_of(n):
            parts = mu.parts + (0,) * len(nu)
            if mu.nrows <= min(k - 1, len(nu)) and all(
                below[i] <= parts[i] <= nu[i] for i in range(len(nu))
            ):
                found.append(mu.parts)
    return sorted(found)


class TestStripRemovals:
    def test_more_rows_than_letters_give_no_strip(self):
        for boxes in range(5):
            assert list(_strip_removals((1, 1), 1, boxes)) == []
            assert list(_strip_removals((2, 1, 1), 2, boxes)) == []

    def test_matches_brute_force(self):
        for n in range(8):
            for nu in partitions_of(n):
                for k in range(1, nu.nrows + 3):
                    reference = horizontal_strip_reference(nu.parts, k)
                    # one more box than nu holds gives no strip
                    for boxes in range(n + 2):
                        got = list(_strip_removals(nu.parts, k, boxes))
                        expected = [mu for mu in reference if sum(mu) == n - boxes]
                        assert sorted(got) == expected, (nu, k, boxes)

    def test_table_entries_are_shared_tuples(self):
        # an entry is handed to every caller, so no caller may be able to change it
        _strip_removals.cache_clear()
        strips = _strip_removals((3, 2), 3, 2)
        assert type(strips) is tuple and all(type(mu) is tuple for mu in strips)
        assert sorted(strips) == [(2, 1), (3,)]
        assert _strip_removals((3, 2), 3, 2) is strips
        assert _strip_removals.cache_info().hits == 1

    def test_products_from_cold_tables_equal_warm(self, pairs):
        # every pair through degree 7, each built again from cleared tables and
        # a cleared schur_polynomial cache, gives what the warm tables give
        walk = [pair for total in range(8) for pair in pairs(total)]
        warm = [_product_expansion(lam, mu) for lam, mu in walk]
        for (lam, mu), expected in zip(walk, warm):
            for table in (_partitions_below, _strip_removals, schur_polynomial):
                table.cache_clear()
            cold = _product_expansion(lam, mu)
            assert list(cold.items()) == list(expected.items()), (lam, mu)


class TestSchurExpand:
    def test_basis_element(self):
        # 10**23 variables, past sys.maxsize: the walk table pads nothing to the width
        for width in (3, 10**23):
            poly = schur_polynomial(Partition((2, 1)), width)
            assert schur_expand(poly) == {Partition((2, 1)): 1}, width

    def test_zero_polynomial(self):
        assert schur_expand(Polynomial.zero(4)) == {}

    def test_square_of_first_schur(self):
        s1 = schur_polynomial(Partition((1,)), 2)
        assert schur_expand(s1 * s1) == {Partition((2,)): 1, Partition((1, 1)): 1}

    def test_coefficient_two_in_square(self):
        s21 = schur_polynomial(Partition((2, 1)), 6)
        expansion = schur_expand(s21 * s21)
        assert expansion[Partition((3, 2, 1))] == 2

    def test_hand_worked_binomial_square(self):
        # (x1 + x2)^2 minus s_(2) leaves x1 x2 = s_(1,1)
        s1 = Polynomial(2, {(1, 0): 1, (0, 1): 1})
        assert schur_expand(s1 * s1) == {Partition((2,)): 1, Partition((1, 1)): 1}

    @pytest.mark.parametrize("terms", [
        # invariant under (x1 x2) only
        {(2, 1, 0): 1, (1, 2, 0): 1},
        {(2, 1, 0, 0): 1, (1, 2, 0, 0): 1, (0, 0, 1, 2): 1, (0, 0, 2, 1): 1},
        # invariant under the cycle of all variables only: x1^2 x2 + x2^2 x3 + x3^2 x1
        {(2, 1, 0): 1, (0, 2, 1): 1, (1, 0, 2): 1},
        {(2, 1, 0, 0): 1, (0, 2, 1, 0): 1, (0, 0, 2, 1): 1, (1, 0, 0, 2): 1},
    ])
    def test_one_generator_is_not_enough(self, terms):
        poly = Polynomial(len(next(iter(terms))), terms)
        assert not poly.is_symmetric()
        with pytest.raises(NotSymmetricError):
            schur_expand(poly)

    def test_elimination_reaches_partitions_absent_from_input(self):
        # x1^2 + x2^2 = s_(2) - s_(1,1); (1, 1) has coefficient 0 in the input
        power_sum = Polynomial(2, {(2, 0): 1, (0, 2): 1})
        assert schur_expand(power_sum) == {Partition((2,)): 1, Partition((1, 1)): -1}

    def test_width_zero_constant(self):
        assert schur_expand(Polynomial(0, {(): 5})) == {EMPTY: 5}

    def test_negative_coefficients_survive_as_data(self):
        poly = schur_polynomial(Partition((2,)), 3) * (-2)
        assert schur_expand(poly) == {Partition((2,)): -2}

    def test_round_trip_of_built_combinations(self):
        rng = random.Random(1)
        for degree in range(1, 7):
            shapes = list(partitions_of(degree))
            width = degree
            # no term, one term and every term at 3, then five seeded draws of coefficients 0..3
            built = [[0] * len(shapes), [1] + [0] * (len(shapes) - 1), [3] * len(shapes)]
            for coeffs in built + [rng.choices(range(4), k=len(shapes)) for _ in range(5)]:
                poly = Polynomial.zero(width)
                for shape, c in zip(shapes, coeffs):
                    if c:
                        poly = poly + schur_polynomial(shape, width) * c
                expected = {shape: c for shape, c in zip(shapes, coeffs) if c}
                assert schur_expand(poly) == expected, coeffs

    def test_dominant_tables_expand_like_unflagged_copies(self):
        # an unflagged copy takes the symmetry scan and the orbit count; the
        # dominant table of a Schur polynomial or product takes neither
        shapes = [shape for n in range(8) for shape in partitions_of(n)]
        values = [_schur.__wrapped__(shape.parts, w) for w in range(8) for shape in shapes]
        operands = {shape: _schur.__wrapped__(shape.parts, 7) for shape in shapes}
        values += [
            operands[lam] * operands[mu]
            for i, lam in enumerate(shapes)
            for mu in shapes[i:]
            if lam.size + mu.size <= 7
        ]
        for p in values:
            expansion = schur_expand(p)
            assert p._terms is None
            copy = Polynomial(p.width, dict(p.terms))
            assert copy._dominant is None
            assert schur_expand(copy) == expansion

    def test_oracle_query_fills_no_orbit(self, pairs):
        # the product route reads dominant tables only: neither operand, nor the
        # product, nor any s_nu whose Kostka numbers the elimination reads is filled
        schur_polynomial.cache_clear()
        width = 7
        for lam, mu in pairs(7):
            left, right = schur_polynomial(lam, width), schur_polynomial(mu, width)
            product = left * right
            expansion = schur_expand(product)
            read = [schur_polynomial(nu, width) for nu in expansion]
            for p in (left, right, product, *read):
                assert p._terms is None, (lam, mu)

    def test_result_keys_are_valid_partitions(self, pairs):
        # the keys are built unchecked from the walk table; each must be what the
        # checking constructor builds from its parts, on both branches of the route
        conjugated = 0
        for total in range(9):
            for lam, mu in pairs(total):
                conjugated += lam.part(0) + mu.part(0) < lam.nrows + mu.nrows
                for key in _product_expansion(lam, mu):
                    assert type(key) is Partition, (lam, mu, key)
                    assert 0 not in key.parts, (lam, mu, key)
                    checked = Partition(key.parts)
                    assert key == checked and hash(key) == hash(checked), (lam, mu, key)
        assert conjugated

    def test_coefficients_stable_in_width(self, pairs):
        # c^nu_{lam mu} != 0 forces l(nu) <= l(lam) + l(mu), so that many variables suffice
        for total in range(1, 7):
            for lam, mu in pairs(total):
                expansions = [
                    schur_expand(schur_polynomial(lam, w) * schur_polynomial(mu, w))
                    for w in (lam.nrows + mu.nrows, total, total + 1)
                ]
                assert expansions[0] == expansions[1] == expansions[2], (lam, mu)


def orbit_size(exps):
    return len(set(permutations(exps)))


def sorting_expand(poly):
    """Reference: homogeneity from the degree set, symmetry by sorting each exponent.

    Symmetric means every term's coefficient equals the one at its sorted
    exponent and the stored exponents fill whole orbits. The expansion
    peels leading terms off the whole polynomial.
    """
    if len({sum(exps) for exps in poly.terms}) > 1:
        raise NotHomogeneousError
    terms = dict(poly.terms)
    dominant = {}
    for exps, coeff in terms.items():
        key = tuple(sorted(exps, reverse=True))
        if key == exps:
            dominant[exps] = coeff
        elif terms.get(key) != coeff:
            raise NotSymmetricError
    if sum(orbit_size(exps) for exps in dominant) != len(terms):
        raise NotSymmetricError
    result = {}
    previous = None
    while not poly.is_zero:
        lead, coeff = poly.leading_term()
        # leads fall strictly in lex order, so a wrong s_lam fails here instead of looping
        assert previous is None or lead < previous, (lead, previous)
        previous = lead
        result[Partition(lead)] = coeff
        poly = poly - schur_polynomial(Partition(lead), poly.width) * coeff
    return result


def small_polynomials(count):
    """``count`` polynomials of widths 0-4, coefficients -2..2; often symmetric, homogeneous or one term off both."""
    rng = random.Random(0)
    for k in range(count):
        width = k % 5
        exps = list(itertools.product(range(4), repeat=width))
        if rng.random() < 0.5:
            degree = rng.randint(0, min(4, 3 * width))
            exps = [e for e in exps if sum(e) == degree]
        terms = {rng.choice(exps): rng.randint(-2, 2) for _ in range(rng.randint(1, 5))}
        if rng.random() < 0.5:
            terms = {perm: c for e, c in terms.items() for perm in permutations(e)}
        if terms and rng.random() < 0.5:
            victim = rng.choice(sorted(terms))
            if rng.random() < 0.5:
                del terms[victim]
            else:
                terms[victim] += rng.choice((-1, 1))
        yield Polynomial(width, terms)


def test_expand_agrees_with_sorting_reference():
    for poly in small_polynomials(300):
        try:
            expected = sorting_expand(poly)
        except (NotHomogeneousError, NotSymmetricError) as exc:
            with pytest.raises(type(exc)):
                schur_expand(poly)
        else:
            assert schur_expand(poly) == expected, poly
