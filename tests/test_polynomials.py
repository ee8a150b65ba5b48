import functools
import importlib
import inspect
import itertools
import pkgutil
import sys
import threading
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, strategies as st

import tableaux
from tableaux import (
    Partition,
    Polynomial,
    format_polynomial,
    partitions_of,
    schur_polynomial,
)
from tableaux.polynomials import _orbit, _orbit_size, _split_keys
from tableaux.schur import _schur


def poly_terms(width, max_degree=3, max_terms=6):
    exps = st.tuples(*[st.integers(0, max_degree) for _ in range(width)]).filter(
        lambda e: sum(e) <= max_degree
    )
    return st.dictionaries(exps, st.integers(-2, 2), max_size=max_terms)


@st.composite
def polynomials(draw, width):
    return Polynomial(width, draw(poly_terms(width)))


X1 = Polynomial.monomial(2, (1, 0))
X2 = Polynomial.monomial(2, (0, 1))


class TestConstruction:
    def test_drops_zero_coefficients(self):
        assert Polynomial(2, {(1, 0): 0, (0, 1): 3}).terms == {(0, 1): 3}

    def test_width_zero_constants(self):
        one = Polynomial(0, {(): 1})
        assert (one * one).coefficient(()) == 1

    def test_zero_polynomial(self):
        assert Polynomial.zero(3).is_zero


class TestArithmetic:
    def test_add_identity(self):
        assert X1 + Polynomial.zero(2) == X1

    def test_cancellation_drops_terms(self):
        assert (X1 + X1 * (-1)).is_zero

    def test_doubling(self):
        s1 = X1 + X2
        assert s1 + s1 == 2 * s1

    def test_mul_identity(self):
        assert X1 * Polynomial.constant(2, 1) == X1

    def test_scalar_multiplication(self):
        assert 3 * X1 == Polynomial.monomial(2, (1, 0), 3)
        assert X1 * 0 == Polynomial.zero(2)

    def test_subtraction(self):
        assert (X1 + X2) - X2 == X1
        assert str(3 - (X1 + 2 * X2)) == "-1 * x1 + -2 * x2 + 3"
        assert (X1 == "x") is False

    @given(st.data())
    def test_ring_laws(self, data):
        width = data.draw(st.integers(1, 3))
        p = data.draw(polynomials(width))
        q = data.draw(polynomials(width))
        r = data.draw(polynomials(width))
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(st.data())
    def test_neg_is_additive_inverse(self, data):
        width = data.draw(st.integers(1, 3))
        p = data.draw(polynomials(width))
        assert (p + (-p)).is_zero


def naive_product(p, q):
    """Reference multiply: one tuple-add per term pair, zeros dropped at the end."""
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            terms[key] = terms.get(key, 0) + c1 * c2
    return Polynomial(p.width, terms)


def wide_terms(width, max_exponent):
    exps = st.tuples(*[st.integers(0, max_exponent) for _ in range(width)])
    coeffs = st.integers(-5, 5) | st.integers(-(2**70), 2**70)
    return st.dictionaries(exps, coeffs, max_size=5)


class TestPairLoop:
    @given(st.data())
    def test_matches_naive_reference(self, data):
        width = data.draw(st.integers(0, 4))
        max_exponent = data.draw(st.sampled_from((1, 3, 12, 40)))
        p = Polynomial(width, data.draw(wide_terms(width, max_exponent)))
        q = Polynomial(width, data.draw(wide_terms(width, max_exponent)))
        product = p * q
        assert product == naive_product(p, q)
        # generic products keep their terms in order of first appearance
        assert list(product.terms) == list(naive_product(p, q).terms)
        assert 0 not in product.terms.values()
        assert all(len(e) == width for e in product.terms)

    def test_width_zero(self):
        three = Polynomial(0, {(): 3})
        assert three * Polynomial(0, {(): -2}) == Polynomial(0, {(): -6})
        assert (three * Polynomial.zero(0)).is_zero

    def test_cancellation_to_zero(self):
        # (x1 + x2)(x1 - x2) = x1^2 - x2^2: the cross terms cancel
        product = (X1 + X2) * (X1 - X2)
        assert product == Polynomial(2, {(2, 0): 1, (0, 2): -1})
        assert (1, 1) not in product.terms
        assert ((X1 - X1) * (X1 + X2)).is_zero

    def test_negative_coefficients(self):
        p = Polynomial(2, {(1, 0): -3, (0, 12): 2})
        assert p * p == Polynomial(2, {(2, 0): 9, (1, 12): -12, (0, 24): 4})


def naive_sum(p, q):
    terms = dict(p.terms)
    for exps, coeff in q.terms.items():
        terms[exps] = terms.get(exps, 0) + coeff
    return {e: c for e, c in terms.items() if c}


class TestOperandsOfDifferentDegrees:
    # Products of operands with different largest exponents, sums and equality
    # must agree with values built from tuples by the constructor and the naive sum.

    def test_product_equals_tuple_built(self):
        cases = [
            ((X1 + X2) * (X1 + X2), {(2, 0): 1, (1, 1): 2, (0, 2): 1}),
            (X1 * X2, {(1, 1): 1}),
            ((X1 * X1 + X2) * (X1 * X1 - X2), {(4, 0): 1, (0, 2): -1}),
        ]
        for product, terms in cases:
            built = Polynomial(2, terms)
            assert product == built and built == product
            assert product.terms == terms
            assert product != Polynomial(2, {**terms, (0, 0): 1})

    def test_same_length_different_terms_differ(self):
        assert X1 * X2 != X2
        assert X1 * X1 != Polynomial(2, {(0, 2): 1})

    @given(st.data())
    def test_add_matches_naive_sum(self, data):
        width = data.draw(st.integers(0, 4))
        max_exponent = data.draw(st.sampled_from((1, 3, 12)))
        p, q, r = (Polynomial(width, data.draw(wide_terms(width, max_exponent))) for _ in range(3))
        for left, right in ((p * q, r), (r, p * q), (p * q, p * r)):
            total = left + right
            assert total.terms == naive_sum(left, right)
            assert total == Polynomial(width, naive_sum(left, right))


def race(work, count):
    """Run ``work(t)`` for t in range(count), one thread each, released together.

    The switch interval is cut to 1e-6 s meanwhile, so the threads interleave
    finely; every thread must finish within the timeout.
    """
    start = threading.Barrier(count, timeout=60)

    def run(t):
        start.wait()
        work(t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def unflagged(p):
    """The same terms, built by the constructor, so products take the pair loop."""
    return Polynomial(p.width, dict(p.terms))


@functools.cache
def degree_eight_sweep():
    """Build every s_lam and every product through degree 8, at widths 0 to 8, once.

    Operands are fresh (``_schur.__wrapped__``), so every value starts unfilled;
    widths below a shape's row count give the zero s_lam, still recorded. Each
    product is taken in both orders. Returns, per property, the values at which it
    failed; the tests that read it each assert their list is empty.
    """
    failed: dict = {"table": [], "lazy": [], "product": []}
    shapes = [shape for n in range(9) for shape in partitions_of(n)]
    for width in range(9):
        operands = {shape: _schur.__wrapped__(shape.parts, width) for shape in shapes}
        products = {
            (lam, mu): (operands[lam] * operands[mu], operands[mu] * operands[lam])
            for i, lam in enumerate(shapes)
            for mu in shapes[i:]
            if lam.size + mu.size <= 8
        }
        values = [(shape, s) for shape, s in operands.items()]
        values += [(pair, p) for pair, both in products.items() for p in both]
        for label, p in values:
            unfilled = p._terms is None
            before = lazy_values(p)
            table = dict(p._dominant)
            terms = list(p.terms.items())
            # the lazy length, lead and zero test survive the fill, which is stored
            # lex-descending, the order sorted_terms returns, unsorted
            if not (
                unfilled
                and p._terms is not None
                and lazy_values(p) == before == (len(terms), terms[0] if terms else None, not terms)
                and terms == sorted(terms, reverse=True) == p.sorted_terms()
            ):
                failed["lazy"].append((label, width))
            partitions = {tuple(filter(None, exps)): c for exps, c in terms if list(exps) == sorted(exps, reverse=True)}
            if table != partitions:
                failed["table"].append((label, width))
        copies = {shape: unflagged(s) for shape, s in operands.items()}
        for (lam, mu), pair in products.items():
            reference = copies[lam] * copies[mu]
            for product in pair:
                if not (
                    reference._dominant is None
                    and product == reference
                    and all(sum(alpha) == lam.size + mu.size for alpha in product._dominant)
                ):
                    failed["product"].append(((lam, mu), width))
    return failed


class TestOrbitProduct:
    # Schur polynomials and their products are symmetric and homogeneous by
    # construction and multiply one orbit at a time; the pair loop on unflagged
    # copies of the same terms is the reference.

    def test_every_schur_pair_through_degree_eight(self):
        # each product, in both orders, equals the pair loop on unflagged copies and keeps a
        # dominant table of its own degree
        assert degree_eight_sweep()["product"] == []

    def test_triple_products(self):
        shapes = [shape for n in range(5) for shape in partitions_of(n)]
        for width in range(6):
            s = {shape: schur_polynomial(shape, width) for shape in shapes}
            for lam in shapes:
                for mu in shapes:
                    for nu in shapes:
                        if lam.size + mu.size + nu.size > 6:
                            continue
                        reference = unflagged(s[lam]) * unflagged(s[mu]) * unflagged(s[nu])
                        assert s[lam] * s[mu] * s[nu] == reference, (lam, mu, nu, width)
                        assert s[lam] * (s[mu] * s[nu]) == reference, (lam, mu, nu, width)

    def test_mixed_operands_take_the_pair_loop(self):
        s = schur_polynomial(Partition((2, 1)), 3)
        t = schur_polynomial(Partition((1,)), 3)
        reference = unflagged(s) * unflagged(t)
        for product in (s * unflagged(t), unflagged(s) * t, (3 * s) * t, s * (t * 3)):
            assert product._dominant is None
        assert s * unflagged(t) == unflagged(s) * t == reference
        assert (3 * s) * t == s * (t * 3) == reference * 3
        # a sum of two degrees is not symmetric of either
        assert (s + t) * t == unflagged(s + t) * unflagged(t)
        assert (s + s) * t == reference * 2

    def test_only_schur_polynomials_and_their_products_are_flagged(self):
        s = schur_polynomial(Partition((2, 1)), 3)
        t = schur_polynomial(Partition((1,)), 3)
        assert s._dominant is not None and (s * t)._dominant is not None
        assert {sum(alpha) for alpha in s._dominant} == {3}
        assert {sum(alpha) for alpha in (s * t)._dominant} == {4}
        equal = Polynomial(3, dict(s.terms))
        assert equal == s
        for other in (s + s, s + t, t + 1, s - s, -s, 2 * s, s * 1, equal, Polynomial.constant(3, 1)):
            assert other._dominant is None

    def test_tables_are_bounded(self):
        # every cached callable of the package, found rather than listed, so a new table cannot land
        # unbounded; one of no parameters (cli._parser) holds a single value and needs no bound
        tables = {}
        for module in pkgutil.iter_modules(tableaux.__path__, "tableaux."):
            for value in vars(importlib.import_module(module.name)).values():
                if hasattr(value, "cache_info") and inspect.signature(value).parameters:
                    tables[f"{value.__module__}.{value.__qualname__}"] = value
        assert {"tableaux.schur._schur", "tableaux.polynomials._split_keys", "tableaux.partitions._partitions_below",
                "tableaux.schur._strip_removals", "tableaux.littlewood_richardson._pair_bounds"} <= tables.keys()
        for name, table in tables.items():
            assert table.cache_info().maxsize is not None, name

    def test_split_keys_match_every_split_through_degree_eight(self):
        # brute force over every beta with 0 <= beta <= alpha entrywise
        for n in range(9):
            for alpha in (shape.parts for shape in partitions_of(n)):
                for low in range(n + 1):
                    expected: dict = {}
                    for beta in itertools.product(*(range(a + 1) for a in alpha)):
                        if sum(beta) != low:
                            continue
                        gamma = [a - b for a, b in zip(alpha, beta)]
                        pair = tuple(
                            tuple(sorted(filter(None, v), reverse=True)) for v in (beta, gamma)
                        )
                        expected[pair] = expected.get(pair, 0) + 1
                    got = _split_keys(alpha, low)
                    assert len(got) == len(expected), (alpha, low)
                    assert {(beta, gamma): m for beta, gamma, m in got} == expected, (alpha, low)

    def test_orbit_keys_are_the_distinct_rearrangements(self):
        # each once, lex-descending
        alphas = ((), (0, 0), (3,), (2, 1, 1, 0), (2, 2, 1, 0, 0), (1, 1, 1), (3, 3, 2, 1, 1, 0, 0))
        for alpha in alphas:
            orbit = _orbit(alpha)
            assert list(orbit) == sorted(set(permutations(alpha)), reverse=True), alpha

    def test_orbit_size_counts_the_orbit_at_every_width(self):
        # a width beyond sys.maxsize is counted without forming a factorial of the width
        assert _orbit_size((2, 1), 10**23) == 10**23 * (10**23 - 1)
        assert _orbit_size((1, 1, 1), 10**23) == comb(10**23, 3)
        for n in range(7):
            for alpha in (shape.parts for shape in partitions_of(n)):
                for width in range(len(alpha), 9):
                    padded = alpha + (0,) * (width - len(alpha))
                    assert _orbit_size(alpha, width) == len(_orbit(padded)), (alpha, width)

    def test_threads_share_cached_schur_operands(self):
        # Every operand and partner is a cached Schur polynomial, so each
        # product takes the orbit route and reads the shared operands' dominant
        # tables and the shared split and orbit tables; each thread takes the
        # partners, of four different degrees, in its own rotation, while the
        # sequential reference multiplies unflagged copies by the pair loop.
        width = 3
        operands = [schur_polynomial(shape, width) for n in range(1, 5) for shape in partitions_of(n)]
        partners = [schur_polynomial(Partition((k,)), width) for k in (1, 2, 3, 5)]
        rounds = 30

        def products(ops, order):
            return [(op * partners[k]).sorted_terms() for k in order for op in ops]

        fresh = [Polynomial(width, op.terms) for op in operands]
        orders = [[(t + k) % len(partners) for k in range(len(partners))] for t in range(4)]
        results: list = [None] * len(orders)

        def work(t):
            results[t] = [products(operands, orders[t]) for _ in range(rounds)]

        race(work, len(orders))
        for order, got in zip(orders, results):
            assert got == [products(fresh, order)] * rounds


class TestStructure:
    def test_leading_term_is_lex_greatest(self):
        poly = Polynomial(2, {(1, 2): 4, (2, 0): 7, (0, 3): 1})
        assert poly.leading_term() == ((2, 0), 7)

    def test_sorted_terms_descending(self):
        poly = Polynomial(2, {(0, 1): 1, (1, 0): 1, (1, 1): 1})
        assert [e for e, _ in poly.sorted_terms()] == [(1, 1), (1, 0), (0, 1)]

    def test_homogeneity(self):
        assert (X1 + X2).is_homogeneous()
        assert not (X1 + Polynomial.constant(2, 1)).is_homogeneous()
        assert Polynomial.zero(2).is_homogeneous()

    def test_symmetry(self):
        assert (X1 + X2).is_symmetric()
        assert not Polynomial.monomial(2, (2, 1)).is_symmetric()
        assert Polynomial.constant(2, 1).is_symmetric()
        elementary = Polynomial(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
        assert elementary.is_symmetric()
        assert ((X1 + X2) * (X1 + X2)).is_symmetric()
        assert not ((X1 + X2) * X1).is_symmetric()

    @given(st.data())
    def test_symmetry_matches_every_permutation(self, data):
        width = data.draw(st.integers(0, 4))
        p = data.draw(polynomials(width))
        if data.draw(st.booleans()):  # symmetrize, then perhaps break one coefficient
            terms = {}
            for exps, coeff in p.terms.items():
                for perm in permutations(exps):
                    terms[perm] = coeff
            if terms and data.draw(st.booleans()):
                victim = data.draw(st.sampled_from(sorted(terms)))
                terms[victim] += data.draw(st.sampled_from((-1, 1)))
            p = Polynomial(width, terms)
        by_definition = all(
            p.coefficient(exps[i] for i in perm) == coeff
            for exps, coeff in p.terms.items()
            for perm in permutations(range(width))
        )
        assert p.is_symmetric() == by_definition

    def test_terms_view_is_read_only(self):
        with pytest.raises(TypeError):
            X1.terms[(5, 5)] = 1


def lazy_values(p):
    """What a polynomial answers from its dominant table while unfilled."""
    try:
        lead = p.leading_term()
    except ValueError:
        lead = None
    return len(p.terms), lead, p.is_zero


class TestLazyView:
    # The orbits of a polynomial symmetric by construction are the only state
    # set after construction, in one assignment of a complete dict, so threads
    # that race to write them agree.

    def test_threads_read_one_fresh_schur_polynomial(self):
        # 4410 terms: long enough a build that a view filled in place is seen half done
        shape, width = Partition((3, 2, 1)), 10
        reference = _schur.__wrapped__(shape.parts, width)
        expected = (reference.sorted_terms(), list(reference.terms), format_polynomial(reference))

        for _ in range(3):
            schur_polynomial.cache_clear()
            poly = schur_polynomial(shape, width)
            assert poly._terms is None
            results: list = [None] * 4

            def work(t):
                results[t] = (poly.sorted_terms(), list(poly.terms), format_polynomial(poly))

            race(work, len(results))
            assert results == [expected] * len(results)

    def test_threads_race_the_first_fill_of_a_product(self):
        # each thread reads the product its own way: the lazy length and lead,
        # then a comparison, a symmetry scan and a scalar product, which fill it
        width = 8
        s, t = (_schur.__wrapped__(p, width) for p in ((3, 2, 1), (2, 1)))
        reference = unflagged(s) * unflagged(t)
        readers = [
            lambda p: (lazy_values(p), p == reference),
            lambda p: (lazy_values(p), p.is_symmetric(), p.sorted_terms() == reference.sorted_terms()),
            lambda p: (lazy_values(p), (p * 2 - reference).coefficient((3, 2, 1, 1, 1, 1, 0, 0))),
            lambda p: (lazy_values(p), dict(p.terms) == dict(reference.terms)),
        ]
        expected = [reader(reference) for reader in readers]
        for _ in range(3):
            product = s * t
            assert product._terms is None
            results: list = [None] * len(readers)

            def work(k):
                results[k] = readers[k](product)

            race(work, len(readers))
            assert results == expected
            assert list(product.terms.items()) == reference.sorted_terms()


class TestDominantTable:
    # Schur polynomials and their products keep only their coefficients at
    # partitions until a monomial is read; both tests read the one degree-8 sweep.

    def test_table_is_the_filled_terms_at_partitions(self):
        assert degree_eight_sweep()["table"] == []

    def test_lazy_values_survive_the_fill(self):
        assert degree_eight_sweep()["lazy"] == []


class TestRendering:
    def test_constant_and_zero(self):
        assert format_polynomial(Polynomial.zero(2)) == "0"
        assert format_polynomial(Polynomial.constant(3, 1)) == "1"
        assert format_polynomial(Polynomial.constant(2, -4)) == "-4"

    def test_exponent_one_written_bare(self):
        assert format_polynomial(Polynomial.monomial(2, (1, 2), 3)) == "3 * x1 x2^2"

    def test_terms_sorted_lex_descending(self):
        poly = Polynomial(2, {(0, 2): 1, (2, 0): 1, (1, 1): 2})
        assert format_polynomial(poly) == "1 * x1^2 + 2 * x1 x2 + 1 * x2^2"
        assert repr(poly) == "Polynomial(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})"

    def test_zero_exponents_omitted(self):
        poly = Polynomial(3, {(0, 1, 0): 5})
        assert format_polynomial(poly) == "5 * x2"
