from itertools import accumulate
from math import comb
from operator import add, ge

from frozen import frozen_heights, frozen_search
from hypothesis import given, settings, strategies as st

import tableaux.fillings
from tableaux import (
    EMPTY,
    Filling,
    Partition,
    SkewShape,
    count_standard_tableaux,
    enumerate_lr_fillings,
    enumerate_ssyt,
    enumerate_syt,
    is_lattice,
    lr_coefficient,
    partitions_of,
    reverse_reading_word,
)
from tableaux.littlewood_richardson import _lr_leaves, _pair_bounds
from tableaux.schur import _product_expansion

LAM = Partition((2, 1))
NU = Partition((3, 2, 1))

# pairs of 12-16 boxes, products of 24-32 boxes: the sizes of the benchmark's LR tables, plus
# tall shapes whose columns run past len(content), where the box caps fall below r + 1
MID_SIZE_PAIRS = [
    ((4, 3, 3, 2), (5, 3, 2, 2)),
    ((5, 4, 3, 2), (4, 4, 3, 2, 1)),
    ((6, 4, 3, 2, 1), (5, 4, 3, 2, 2)),
    ((6, 6), (4, 4, 4)),
    ((3, 3, 2, 2, 1, 1, 1, 1), (6, 6)),
    ((2, 2, 2, 2, 2, 2, 1, 1), (4, 3, 3, 2)),
]


def frozen_caps(lam, m, nu):
    """min(r + 1, m - boxes below) per box of ν/λ in reverse reading order, from column heights."""
    height = frozen_heights(nu)
    return [
        min(r + 1, m - (height[c] - 1 - r))
        for r, hi in enumerate(nu)
        for c in range(hi - 1, (lam[r] if r < len(lam) else 0) - 1, -1)
    ]


def frozen_lr_rows(outer, inner, content):
    """Witness rows from a frozen copy of an earlier callback, run through :func:`frozen_search` in reverse.

    It has no dominance window and recomputes the box caps from the column
    heights, and neither it nor :func:`frozen_search` shares code with the
    library's search, so it checks all of them.
    """
    mu = content.parts
    if not outer.contains(inner) or outer.size - inner.size != content.size:
        return []
    m = len(mu)
    cap = frozen_caps(inner.parts, m, outer.parts)
    counts = [content.size] + [0] * m

    def candidates(k, right, up):
        for v in range(up + 1, min(right or m, cap[k]) + 1):
            if counts[v] < mu[v - 1] and counts[v] < counts[v - 1]:
                counts[v] += 1
                yield v
                counts[v] -= 1

    return list(frozen_search(SkewShape(outer, inner), candidates, reverse=True))


def frozen_window(outer, inner, content):
    """A frozen copy of the earlier per-query check: containment, size, dominance window.

    It rebuilds the row sums λ + μ and the sorted λ ∪ μ on every call and
    shares no table with the library.
    """

    def dominates(big, small):
        return all(map(ge, accumulate(big), accumulate(small)))

    lam, mu, nu = inner.parts, content.parts, outer.parts
    if not outer.contains(inner) or sum(nu) - sum(lam) != sum(mu):
        return False
    row_sum = [*map(add, lam, mu), *(lam[len(mu) :] or mu[len(lam) :])]
    return dominates(row_sum, nu) and dominates(nu, sorted(lam + mu, reverse=True))


def frozen_weyl(outer, inner, content):
    """Weyl's ν_{i+j} <= λ_i + μ_j for every row of ν, rows from 0 and parts past the end 0.

    A plain double loop over i + j = k per row k of ν, sharing no code or
    table with the library's row caps.
    """
    lam, mu, nu = inner.parts, content.parts, outer.parts

    def part(parts, i):
        return parts[i] if i < len(parts) else 0

    for k in range(len(nu)):
        for i in range(k + 1):
            if nu[k] > part(lam, i) + part(mu, k - i):
                return False
    return True


def witness_count_three_ways(lam, mu, nu):
    """c^ν_{λμ} by the count, by the witness list and by the frozen reference, held equal."""
    count = lr_coefficient(lam, mu, nu)
    assert count == len(list(enumerate_lr_fillings(nu, lam, mu))), (lam, mu, nu)
    assert count == len(frozen_lr_rows(nu, lam, mu)), (lam, mu, nu)
    return count


@st.composite
def lr_triples(draw):
    """λ and μ inside a 5 x 5 box, and ν grown from λ by |μ| boxes, each at a drawn addable box."""

    def box_partition():
        return sorted(draw(st.lists(st.integers(1, 5), max_size=5)), reverse=True)

    lam, mu = box_partition(), box_partition()
    nu = list(lam)
    for _ in range(sum(mu)):
        rows = [r for r in range(len(nu) + 1) if r == 0 or r == len(nu) or nu[r - 1] > nu[r]]
        r = rows[draw(st.integers(0, len(rows) - 1))]
        if r == len(nu):
            nu.append(0)
        nu[r] += 1
    return Partition(tuple(lam)), Partition(tuple(mu)), Partition(tuple(nu))


class TestReadingWord:
    def test_witness_words(self):
        first = Filling.from_rows([[1], [1], [2]], inner=[2, 1])
        second = Filling.from_rows([[1], [2], [1]], inner=[2, 1])
        assert reverse_reading_word(first) == (1, 1, 2)
        assert reverse_reading_word(second) == (1, 2, 1)

    def test_rows_reversed(self):
        filling = Filling.from_rows([[1, 2, 2, 4], [2, 3], [4]])
        assert reverse_reading_word(filling) == (4, 2, 2, 1, 3, 2, 4)

    def test_empty(self):
        assert reverse_reading_word(Filling.from_rows(())) == ()


class TestLattice:
    def test_examples(self):
        assert is_lattice((1, 1, 2))
        assert is_lattice((1, 2, 1))
        assert not is_lattice((2, 1, 1))
        assert is_lattice(())
        assert is_lattice((1, 1, 2, 2))
        assert not is_lattice((1, 2, 2))

    def test_gap_in_letters(self):
        assert not is_lattice((1, 3))


class TestEnumeration:
    def test_the_two_staircase_witnesses(self):
        witnesses = list(enumerate_lr_fillings(NU, LAM, LAM))
        assert [w.rows for w in witnesses] == [
            ((1,), (1,), (2,)),
            ((1,), (2,), (1,)),
        ]
        assert all(type(w) is Filling and w.shape == SkewShape(NU, LAM) for w in witnesses)

    def test_witnesses_ordered_by_reading_word(self):
        for nu in partitions_of(5):
            witnesses = list(enumerate_lr_fillings(nu, Partition((2,)), Partition((2, 1))))
            words = [reverse_reading_word(w) for w in witnesses]
            assert words == sorted(words)

    def test_equal_shapes_leave_the_empty_filling(self):
        witnesses = list(enumerate_lr_fillings(LAM, LAM, EMPTY))
        assert len(witnesses) == 1
        assert witnesses[0].rows == ((), ())

    def test_mid_size_witnesses_match_frozen_callback(self):
        f = count_standard_tableaux
        for lam, mu in MID_SIZE_PAIRS:
            lam, mu = Partition(lam), Partition(mu)
            total = lam.size + mu.size
            lhs = 0
            for nu in partitions_of(total):
                got = [w.rows for w in enumerate_lr_fillings(nu, lam, mu)]
                assert got == frozen_lr_rows(nu, lam, mu), (lam, mu, nu)
                assert lr_coefficient(lam, mu, nu) == len(got), (lam, mu, nu)
                lhs += len(got) * f(nu)
            assert lhs == comb(total, lam.size) * f(lam) * f(mu), (lam, mu)

    def test_not_contained_is_empty(self):
        assert list(enumerate_lr_fillings(Partition((2, 2)), Partition((3,)), LAM)) == []


class TestCoefficient:
    def test_empty_content(self):
        assert lr_coefficient(LAM, EMPTY, LAM) == 1
        assert lr_coefficient(EMPTY, LAM, LAM) == 1

    def test_edge_cases_agree_on_every_route(self):
        assert witness_count_three_ways(NU, EMPTY, NU) == 1  # ν = λ, μ empty
        assert witness_count_three_ways(EMPTY, EMPTY, EMPTY) == 1
        assert witness_count_three_ways(LAM, Partition((1,)), Partition((2,))) == 0  # size mismatch
        assert witness_count_three_ways(LAM, LAM, Partition((4, 1))) == 0
        assert witness_count_three_ways(Partition((3,)), Partition((1,)), Partition((2, 2))) == 0
        assert witness_count_three_ways(Partition((2, 2)), LAM, Partition((6, 1))) == 0

    def test_long_row_and_column_on_both_routes(self):
        # one box per row or per column, 1200 deep: no route may recurse per box
        for shape in (Partition((1200,)), Partition((1,) * 1200)):
            assert lr_coefficient(EMPTY, shape, shape) == 1
            assert len(list(enumerate_lr_fillings(shape, EMPTY, shape))) == 1
            assert lr_coefficient(shape, EMPTY, shape) == 1
            assert len(list(enumerate_lr_fillings(shape, shape, EMPTY))) == 1
        column = Partition((1,) * 1200)
        (witness,) = enumerate_lr_fillings(column, EMPTY, column)
        assert witness.rows == tuple((v,) for v in range(1, 1201))

    def test_count_witnesses_and_frozen_reference_agree_through_nine_boxes(self, pairs):
        for total in range(10):
            for lam, mu in pairs(total):
                for nu in partitions_of(total):
                    witness_count_three_ways(lam, mu, nu)

    def test_box_caps_match_column_heights(self, monkeypatch, pairs):
        # the caps only prune, so a cap set too high changes no output; hold the caps each
        # search hands to fillings._leaves to their closed forms, box by box in search order
        caps = []
        monkeypatch.setattr(tableaux.fillings, "_leaves", lambda cap, *_: caps.append(cap) or iter(()))

        def caps_of(search):
            caps.clear()
            search()
            (cap,) = caps
            return cap

        shapes = [nu for total in range(10) for nu in partitions_of(total)]
        for nu in shapes[:30]:  # |ν| <= 6
            # column heights from the references' own loop: the searches read Partition.conjugate
            height = frozen_heights(nu.parts)
            for lam in shapes[:30]:
                if nu.contains(lam):
                    skew = SkewShape(nu, lam)
                    below = [height[c] - 1 - r for r, c in skew.boxes()]
                    for bound in range(5):
                        expected = [bound - d for d in below]
                        assert caps_of(lambda: enumerate_ssyt(skew, bound)) == expected, (skew, bound)
            # n + 1 - hook, the hook being the arm and the leg of the box and the box itself
            expected = [nu.size - (nu.parts[r] - 1 - c) - (height[c] - 1 - r) for r, c in nu.boxes()]
            assert caps_of(lambda: enumerate_syt(nu)) == expected, nu
        # LR: every search that passes the window and the row caps through nine boxes, and for
        # the mid-size pairs in both orders every ν whose column runs past ℓ(μ), where the caps
        # fall below r + 1
        triples = [(lam, mu, nu) for total in range(10) for lam, mu in pairs(total)
                   for nu in partitions_of(total)]
        for pair in MID_SIZE_PAIRS:
            for lam, mu in (map(Partition, pair), map(Partition, pair[::-1])):
                nus = partitions_of(lam.size + mu.size)
                triples += [(lam, mu, nu) for nu in nus if len(nu.parts) > len(mu.parts)]
        searched = 0
        for lam, mu, nu in triples:
            caps.clear()
            lr_coefficient(lam, mu, nu)
            if caps:
                (cap,) = caps
                assert cap == frozen_caps(lam.parts, len(mu.parts), nu.parts), (lam, mu, nu)
                searched += 1
        assert searched > 7000

    @settings(max_examples=60)
    @given(lr_triples())
    def test_count_matches_frozen_reference_in_a_five_box(self, triple):
        lam, mu, nu = triple
        rows = [w.rows for w in enumerate_lr_fillings(nu, lam, mu)]
        assert rows == frozen_lr_rows(nu, lam, mu)
        assert lr_coefficient(lam, mu, nu) == len(rows)

    def test_table_identity_through_eleven_boxes(self, pairs):
        # sum_nu c^nu_{lam mu} f^nu = C(n, |lam|) f^lam f^mu counts the standard
        # fillings of the product both ways; every term is >= 0, so a pruning
        # rule that loses a witness anywhere in a table leaves the sum short
        f = count_standard_tableaux
        for total in range(12):
            for lam, mu in pairs(total):
                lhs = sum(lr_coefficient(lam, mu, nu) * f(nu) for nu in partitions_of(total))
                assert lhs == comb(total, lam.size) * f(lam) * f(mu), (lam, mu)

    def test_symmetric_in_first_two_arguments(self, pairs):
        # not obvious from the rule itself; holds because the product commutes
        for total in range(7):
            for lam, mu in pairs(total):
                for nu in partitions_of(total):
                    assert lr_coefficient(lam, mu, nu) == lr_coefficient(mu, lam, nu)


class TestPairTable:
    def test_table_is_bounded_and_holds_tuples(self):
        # fewer entries than the 110 pairs of a degree-7 sweep, so no sweep is kept whole
        assert _pair_bounds.cache_info().maxsize < 110
        _pair_bounds.cache_clear()
        assert lr_coefficient(LAM, LAM, NU) == 2
        assert lr_coefficient(LAM, LAM, NU) == 2
        info = _pair_bounds.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        entry = _pair_bounds(LAM.parts, LAM.parts)
        assert type(entry) is tuple
        size, upper, lower, caps = entry
        # caps: w_k = min over i + j = k of λ_i + μ_j, so 2 + 2, 2 + 1, 2 + 0 and 1 + 0
        assert (size, upper, lower, caps) == (6, (0, 4, 6), (0, 2, 4, 5, 6), (4, 3, 2, 1))
        assert all(type(part) is tuple for part in (upper, lower, caps))
        assert _lr_leaves(NU, LAM, LAM) is not None
        assert _pair_bounds.cache_info().hits == info.hits + 2

    def test_admissible_matches_frozen_window(self, pairs):
        # every triple with |nu| <= 9, sizes that cannot balance and empty shapes included
        shapes = [nu for total in range(10) for nu in partitions_of(total)]
        for total in range(10):
            for lam, mu in pairs(total):
                for nu in shapes:
                    got = _lr_leaves(nu, lam, mu)
                    expected = frozen_window(nu, lam, mu) and frozen_weyl(nu, lam, mu)
                    assert (got is not None) == expected, (lam, mu, nu)
        # every nu of the mid-size pairs, and of each of their shapes with the empty one
        for lam, mu in MID_SIZE_PAIRS:
            lam, mu = Partition(lam), Partition(mu)
            for inner, content in ((lam, mu), (mu, lam), (lam, EMPTY), (EMPTY, mu)):
                for nu in partitions_of(inner.size + content.size):
                    got = _lr_leaves(nu, inner, content)
                    expected = frozen_window(nu, inner, content) and frozen_weyl(nu, inner, content)
                    assert (got is not None) == expected, (inner, content, nu)

    def test_row_caps_refuse_only_zeros_inside_the_window(self, pairs):
        # s_2 s_11 = s_31 + s_211: ν = (2, 2) is inside the window, but ν_1 = 2 > λ_1 + μ_0 = 1
        assert frozen_window(Partition((2, 2)), Partition((2,)), Partition((1, 1)))
        assert _lr_leaves(Partition((2, 2)), Partition((2,)), Partition((1, 1))) is None
        expansion = _product_expansion(Partition((2,)), Partition((1, 1)))
        assert expansion == {Partition((3, 1)): 1, Partition((2, 1, 1)): 1}
        # the triples the window admits and the caps refuse, over every pair of degrees 4-8
        reach = {}
        for total in range(4, 9):
            refused = []
            for lam, mu in pairs(total):
                expansion = _product_expansion(lam, mu)
                for nu in partitions_of(total):
                    if frozen_window(nu, lam, mu) and _lr_leaves(nu, lam, mu) is None:
                        assert nu not in expansion, (lam, mu, nu)
                        refused.append((lam, mu, nu))
            reach[total] = len(refused)
            if total == 4:
                assert refused == [(Partition((2,)), Partition((1, 1)), Partition((2, 2))),
                                   (Partition((1, 1)), Partition((2,)), Partition((2, 2)))]
        assert reach == {4: 2, 5: 4, 6: 18, 7: 40, 8: 108}

    def test_coefficients_warm_cold_and_interleaved_through_degree_eight(self, pairs):
        # the pair's entry may come from this query, an earlier one or another pair's
        # eviction; each way must give the coefficient of the expansion route
        for total in range(9):
            walk = list(pairs(total))
            nus = list(partitions_of(total))
            expected = [[_product_expansion(lam, mu).get(nu, 0) for nu in nus] for lam, mu in walk]
            _pair_bounds.cache_clear()
            warm = [[lr_coefficient(lam, mu, nu) for nu in nus] for lam, mu in walk]
            assert warm == expected, total
            cold = []
            for lam, mu in walk:
                cold.append([])
                for nu in nus:
                    _pair_bounds.cache_clear()
                    cold[-1].append(lr_coefficient(lam, mu, nu))
            assert cold == expected, total
            # pair i alternates with pair -1 - i, nu by nu
            for i in range((len(walk) + 1) // 2):
                rows = ([], [])
                for nu in nus:
                    for (lam, mu), row in zip((walk[i], walk[-1 - i]), rows):
                        row.append(lr_coefficient(lam, mu, nu))
                assert rows == (expected[i], expected[-1 - i]), (walk[i], walk[-1 - i])
