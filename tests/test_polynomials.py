import functools
import importlib
import inspect
import itertools
import pkgutil
import random
import sys
import threading
from itertools import permutations
from math import comb

import pytest
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


def polynomials(rng, width, max_degree=3, max_terms=6):
    """Up to ``max_terms`` terms of degree at most ``max_degree``, coefficients -2..2, drawn from ``rng``."""
    exps = [e for e in itertools.product(range(max_degree + 1), repeat=width) if sum(e) <= max_degree]
    return Polynomial(width, {rng.choice(exps): rng.randint(-2, 2) for _ in range(rng.randint(0, max_terms))})


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

    def test_ring_laws(self):
        rng = random.Random(1)
        for width in (1, 2, 3):
            zero = Polynomial.zero(width)
            for p, q, r in [(zero, zero, zero)] + [[polynomials(rng, width) for _ in range(3)] for _ in range(34)]:
                assert p + q == q + p
                assert (p + q) + r == p + (q + r)
                assert p * q == q * p
                assert (p * q) * r == p * (q * r)
                assert p * (q + r) == p * q + p * r

    def test_neg_is_additive_inverse(self):
        rng = random.Random(2)
        for width in (1, 2, 3):
            for p in [Polynomial.zero(width)] + [polynomials(rng, width) for _ in range(34)]:
                assert (p + (-p)).is_zero, p


def naive_product(p, q):
    """Reference multiply: one tuple-add per term pair, zeros dropped at the end."""
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            terms[key] = terms.get(key, 0) + c1 * c2
    return Polynomial(p.width, terms)


def naive_sum(p, q):
    """Reference add: the terms of ``p`` updated by each term of ``q``, zeros dropped at the end."""
    terms = dict(p.terms)
    for exps, coeff in q.terms.items():
        terms[exps] = terms.get(exps, 0) + coeff
    return {e: c for e, c in terms.items() if c}


def wide_polynomial(rng, width, max_exponent):
    """Up to 5 terms, exponents 0..max_exponent, coefficients -5..5 or up to 2**70 in size."""
    def coeff():
        return rng.randint(-5, 5) if rng.random() < 0.5 else rng.randint(-(2**70), 2**70)

    return Polynomial(width, {tuple(rng.choices(range(max_exponent + 1), k=width)): coeff()
                              for _ in range(rng.randint(0, 5))})


class TestPairLoop:
    def test_matches_naive_reference(self):
        rng = random.Random(3)
        for width, max_exponent in itertools.product(range(5), (1, 3, 12, 40)):
            zero = Polynomial.zero(width)
            for p, q in [(zero, zero)] + [(wide_polynomial(rng, width, max_exponent),
                                           wide_polynomial(rng, width, max_exponent)) for _ in range(5)]:
                product = p * q
                assert product == naive_product(p, q)
                # generic products keep their terms in order of first appearance
                assert list(product.terms) == list(naive_product(p, q).terms)
                assert 0 not in product.terms.values()
                assert all(len(e) == width for e in product.terms)
                for left, right in ((p, q), (product, p), (p, product)):
                    assert (left + right).terms == naive_sum(left, right), (left, right)

    def test_width_zero(self):
        three = Polynomial(0, {(): 3})
        assert three * Polynomial(0, {(): -2}) == Polynomial(0, {(): -6})
        assert (three * Polynomial.zero(0)).is_zero

    def test_cancellation_to_zero(self):
        # by hand: the cross terms of the first two cancel, and the binomial square doubles them
        cases = [
            ((X1 + X2) * (X1 - X2), {(2, 0): 1, (0, 2): -1}),
            ((X1 * X1 + X2) * (X1 * X1 - X2), {(4, 0): 1, (0, 2): -1}),
            ((X1 + X2) * (X1 + X2), {(2, 0): 1, (1, 1): 2, (0, 2): 1}),
            (X1 * X2, {(1, 1): 1}),
        ]
        for product, terms in cases:
            assert product.terms == terms and product == Polynomial(2, terms)
            assert product != Polynomial(2, {**terms, (0, 0): 1})
        assert ((X1 - X1) * (X1 + X2)).is_zero
        assert X1 * X2 != X2 and X1 * X1 != Polynomial(2, {(0, 2): 1})  # as many terms, not the same ones

    def test_negative_coefficients(self):
        p = Polynomial(2, {(1, 0): -3, (0, 12): 2})
        assert p * p == Polynomial(2, {(2, 0): 9, (1, 12): -12, (0, 24): 4})


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
            # lex-descending, the order sorted_terms returns
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

    @pytest.mark.parametrize("lam, mu, width, reads", [
        ((2, 1), (1, 1), 4, 4),  # lead (3, 2)
        ((3, 1), (2, 2), 4, 11),  # lead (5, 3)
        ((1, 1, 1), (1, 1, 1, 1), 7, 4),  # lead (2, 2, 2, 1)
    ])
    def test_walk_starts_at_the_product_lead(self, lam, mu, width, reads):
        # one split-table entry per alpha read: exactly the partitions of at most `width` parts
        # lex-below lam + mu, in either order of the operands
        s, t = _schur.__wrapped__(lam, width), _schur.__wrapped__(mu, width)
        for left, right in ((s, t), (t, s)):
            _split_keys.cache_clear()
            product = left * right
            assert _split_keys.cache_info().misses == reads, (left, right)
            assert product == unflagged(s) * unflagged(t)

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

    def test_symmetry_matches_every_permutation(self):
        rng = random.Random(4)
        for width in range(5):
            for p in [Polynomial.zero(width)] + [polynomials(rng, width) for _ in range(20)]:
                if rng.random() < 0.5:  # symmetrize, then perhaps break one coefficient
                    terms = {}
                    for exps, coeff in p.terms.items():
                        for perm in permutations(exps):
                            terms[perm] = coeff
                    if terms and rng.random() < 0.5:
                        terms[rng.choice(sorted(terms))] += rng.choice((-1, 1))
                    p = Polynomial(width, terms)
                by_definition = all(
                    p.coefficient(exps[i] for i in perm) == coeff
                    for exps, coeff in p.terms.items()
                    for perm in permutations(range(width))
                )
                assert p.is_symmetric() == by_definition, p

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
