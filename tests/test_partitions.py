import itertools
import math
from functools import partial

import pytest
from tableaux import (
    EMPTY,
    EntryExceedsBoundError,
    Filling,
    InvalidBoxError,
    MalformedPairError,
    NotContainedError,
    NotHomogeneousError,
    NotSymmetricError,
    NotWeaklyDecreasingError,
    Partition,
    Permutation,
    Polynomial,
    RskPair,
    SkewShape,
    WidthMismatchError,
    bender_knuth,
    count_standard_tableaux,
    enumerate_lr_fillings,
    enumerate_ssyt,
    enumerate_syt,
    format_partition,
    inverse_rsk,
    is_lattice,
    lr_coefficient,
    parse_partition,
    parse_permutation,
    partitions_of,
    reverse_reading_word,
    row_insert,
    rsk,
    schur_expand,
    schur_polynomial,
)
from tableaux.partitions import _capped_vectors, _partitions_below


def partitions(max_part=6, max_rows=5):
    """Every partition of at most ``max_rows`` parts, each at most ``max_part``: the 462 of the 5 x 6 box."""
    return [Partition(parts[::-1]) for k in range(max_rows + 1)
            for parts in itertools.combinations_with_replacement(range(1, max_part + 1), k)]


BOX_SHAPES = partitions()


def reverse_lex_partitions(n: int, cap: int | None = None):
    """Independent generator: largest first part first, then the rest recursively."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, n if cap is None else cap), 0, -1):
        for rest in reverse_lex_partitions(n - first, first):
            yield (first,) + rest


def pentagonal_counts(limit: int) -> list[int]:
    """p(0..limit) by Euler's recurrence over the generalized pentagonal numbers."""
    counts = [1] + [0] * limit
    for n in range(1, limit + 1):
        k = 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            for pent in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if pent <= n:
                    counts[n] += sign * counts[n - pent]
            k += 1
    return counts


def contains_reference(outer: Partition, inner: Partition) -> bool:
    """Row by row: every row of inner fits under the same row of outer, missing rows being 0."""
    return all(inner.part(r) <= outer.part(r) for r in range(max(outer.nrows, inner.nrows)))


class TestConstruction:
    def test_already_canonical(self):
        assert Partition((4, 2, 1)).parts == (4, 2, 1)

    def test_strips_zeros(self):
        assert Partition((3, 3, 0, 0)).parts == (3, 3)
        assert Partition((3, 0, 2)).parts == (3, 2)

    def test_accepts_lists(self):
        assert Partition([5, 1]) == Partition((5, 1))
        assert repr(Partition((2, 1))) == "Partition([2, 1])"

    def test_empty(self):
        assert Partition(()).parts == ()
        assert EMPTY.size == 0

    def test_hashable_value_semantics(self):
        assert {Partition((2, 1)), Partition([2, 1, 0])} == {Partition((2, 1))}


class TestContains:
    def test_nested_staircases(self):
        assert Partition((3, 2, 1)).contains(Partition((2, 1)))

    def test_empty_in_everything(self):
        assert Partition((5, 5)).contains(EMPTY)
        assert EMPTY.contains(EMPTY)

    def test_too_wide(self):
        assert not Partition((2, 2)).contains(Partition((3,)))

    def test_too_tall(self):
        assert not Partition((3,)).contains(Partition((1, 1)))

    def test_longer_but_narrower_is_not_contained(self):
        assert not Partition((5, 5)).contains(Partition((1, 1, 1)))

    def test_equal_shapes(self):
        assert Partition((3, 3, 1)).contains(Partition((3, 3, 1)))

    def test_matches_per_row_reference(self):
        for outer in BOX_SHAPES:
            wrong = [inner for inner in BOX_SHAPES if outer.contains(inner) != contains_reference(outer, inner)]
            assert wrong == [], outer
            assert outer.part(-1) == outer.part(outer.nrows) == 0  # rows past either end, as the reference reads them
            assert outer.contains(outer) and outer.contains(EMPTY)
            assert EMPTY.contains(outer) == (outer == EMPTY)

    def test_matches_reference_on_long_narrow_against_short_wide(self):
        for long, wide in itertools.product(partitions(max_part=3, max_rows=7), partitions(max_part=6, max_rows=3)):
            for outer, inner in ((long, wide), (wide, long)):
                assert outer.contains(inner) == contains_reference(outer, inner), (outer, inner)


class TestConjugate:
    def test_column_heights(self):
        assert Partition((4, 2, 1)).conjugate() == Partition((3, 2, 1, 1))

    def test_empty(self):
        assert EMPTY.conjugate() == EMPTY

    def test_single_row(self):
        assert Partition((4,)).conjugate() == Partition((1, 1, 1, 1))

    def test_equals_its_validated_rebuild(self):
        for n in range(11):
            for shape in partitions_of(n):
                conj = shape.conjugate()
                assert conj == Partition(list(conj.parts))
                assert hash(conj) == hash(Partition(list(conj.parts)))

    def test_involution(self):
        for shape in BOX_SHAPES:
            assert shape.conjugate().conjugate() == shape

    def test_preserves_size(self):
        for shape in BOX_SHAPES:
            assert shape.conjugate().size == shape.size


class TestHooks:
    def test_corner_hooks(self):
        lam = Partition((4, 2, 1))
        assert lam.hook_length(0, 0) == 6
        assert lam.hook_length(2, 0) == 1
        assert Partition((1,)).hook_length(0, 0) == 1

    def test_hooks_agree_with_per_box_lookup(self):
        for shape in BOX_SHAPES:
            assert list(shape.hooks()) == [shape.hook_length(r, c) for r, c in shape.boxes()], shape


class TestCountStandard:
    def test_hook_formula_headline(self):
        assert count_standard_tableaux(Partition((4, 2, 1))) == 35

    def test_matches_enumeration_up_to_ten(self):
        # n = 0 included: the empty shape has one filling
        for n in range(11):
            for shape in partitions_of(n):
                assert count_standard_tableaux(shape) == sum(1 for _ in enumerate_syt(shape))

    def test_conjugation_invariant(self):
        for n in range(11):
            for shape in partitions_of(n):
                assert count_standard_tableaux(shape) == count_standard_tableaux(shape.conjugate())

    def test_two_rows_give_catalan_number(self):
        n = 50
        assert count_standard_tableaux(Partition((n, n))) == math.comb(2 * n, n) // (n + 1)

    def test_matches_per_box_product_up_to_twenty(self):
        # shapes of 13-20 rows take the per-box route, the rest the first-column one
        for n in range(21):
            for shape in partitions_of(n):
                assert count_standard_tableaux(shape) == math.factorial(n) // math.prod(shape.hooks()), shape
        # a hook (a, 1^b) has C(a + b - 1, b) fillings, on 12 rows and on 2001
        for a, b in ((300, 11), (2000, 2000)):
            assert count_standard_tableaux(Partition((a,) + (1,) * b)) == math.comb(a + b - 1, b)

    def test_wrong_hooks_raise(self, monkeypatch):
        # per box, on 13 rows: every hook one too long, 13! is no multiple of 2*3*...*14 = 14!
        true_hooks = Partition.hooks
        with monkeypatch.context() as patch:
            patch.setattr(Partition, "hooks", lambda self: (h + 1 for h in true_hooks(self)))
            with pytest.raises(ArithmeticError):
                count_standard_tableaux(Partition((1,) * 13))
        # from the first column: every first-column hook one too long, (7, 4, 2) for (4, 2, 1),
        # and 7! * (3 * 5 * 2) = 151,200 is no multiple of 7! * 4! * 2! = 241,920
        monkeypatch.setattr("tableaux.partitions.add", lambda part, below: part + below + 1)
        with pytest.raises(ArithmeticError):
            count_standard_tableaux(Partition((4, 2, 1)))


class TestPartitionsOf:
    def test_matches_recursive_generator_in_order(self):
        # each partition once, lex-descending: the sequence pins count, order and distinctness
        for n in range(31):
            shapes = list(partitions_of(n))
            assert [shape.parts for shape in shapes] == list(reverse_lex_partitions(n)), n
            for shape in shapes:
                rebuilt = Partition(shape.parts)
                assert shape == rebuilt and hash(shape) == hash(rebuilt)

    def test_memory_follows_the_parts_not_n(self):
        n = 10**9
        first = [shape.parts for shape in itertools.islice(partitions_of(n), 4)]
        assert first == [(n,), (n - 1, 1), (n - 2, 2), (n - 2, 1, 1)]

    def test_counts_match_pentagonal_recurrence(self):
        # every n through 45, then two large n (p(60) = 966467 partitions)
        counts = pentagonal_counts(60)
        assert counts[50] == 204226 and counts[60] == 966467
        for n in [*range(46), 50, 60]:
            assert sum(1 for _ in partitions_of(n)) == counts[n], n


class TestPartitionsBelow:
    def test_equals_filtered_partitions_of(self):
        # every lead through 13 boxes at every width up to one past its size, leads taller
        # than the width included; the reference is the recursive generator, as
        # partitions_of shares the walk
        for n in range(14):
            shapes = list(reverse_lex_partitions(n))
            for lead in shapes:
                for width in range(n + 2):
                    expected = [p for p in shapes if p <= lead and len(p) <= width]
                    assert list(_partitions_below(lead, width)) == expected, (lead, width)

    def test_long_row_and_tall_leads(self):
        assert list(_partitions_below((1200,), 1)) == [(1200,)]
        assert list(_partitions_below((1,) * 1200, 1)) == []
        assert list(_partitions_below((2, 1, 1), 2)) == []
        assert list(_partitions_below((3, 1, 1, 1), 3)) == [(2, 2, 2)]
        # a width past sys.maxsize: nothing is padded to the width
        assert _partitions_below((2, 1), 10**23) == ((2, 1), (1, 1, 1))

    def test_table_entries_are_shared_tuples(self):
        # an entry is handed to every caller, so no caller may be able to change it
        _partitions_below.cache_clear()
        walk = _partitions_below((4, 1), 3)
        assert type(walk) is tuple and all(type(alpha) is tuple for alpha in walk)
        assert _partitions_below((4, 1), 3) is walk
        assert _partitions_below.cache_info().hits == 1


class TestCappedVectors:
    def test_equals_filtered_product_in_lex_order(self):
        # itertools.product runs lex-ascending, so the filter keeps the walk's order
        shapes = [caps for length in range(6) for caps in itertools.product(range(3), repeat=length)]
        shapes += [(5, 0, 2), (1, 4), (0, 0), (6,), (3, 1, 0, 2)]
        for caps in shapes:
            vectors = list(itertools.product(*(range(cap + 1) for cap in caps)))
            for total in range(-1, sum(caps) + 2):
                expected = [v for v in vectors if sum(v) == total]
                assert _capped_vectors(caps, total) == expected, (caps, total)

    def test_empty_caps(self):
        assert _capped_vectors((), 0) == [()]
        for total in (-2, -1, 1, 5):
            assert _capped_vectors((), total) == []


class TestSkewShape:
    def test_staircase_skew_boxes(self):
        skew = SkewShape(Partition((3, 2, 1)), Partition((2, 1)))
        assert list(skew.boxes()) == [(0, 2), (1, 1), (2, 0)]
        assert skew.size == 3

    def test_straight_shape(self):
        skew = Partition((4, 2, 1)).as_skew()
        assert skew.inner == EMPTY
        assert skew.size == 7

    def test_row_with_no_boxes(self):
        skew = SkewShape(Partition((2, 2)), Partition((2,)))
        assert list(skew.boxes()) == [(1, 0), (1, 1)]
        assert not skew.has_box(0, 0)

    def test_trusted_equals_validated_on_every_contained_pair(self):
        pairs = 0
        for n in range(9):
            for outer in partitions_of(n):
                for k in range(n + 1):
                    for inner in partitions_of(k):
                        if not contains_reference(outer, inner):
                            continue
                        trusted, checked = SkewShape._trusted(outer, inner), SkewShape(outer, inner)
                        assert trusted == checked and hash(trusted) == hash(checked)
                        assert str(trusted) == str(checked) and trusted.size == checked.size
                        assert list(trusted.boxes()) == list(checked.boxes())
                        pairs += 1
        assert pairs == 862  # (outer, inner) with inner ⊆ outer and |outer| <= 8

    def test_as_skew_equals_validated(self):
        for n in range(9):
            for shape in partitions_of(n):
                assert shape.as_skew() == SkewShape(shape, EMPTY)


class TestTextFormat:
    def test_parse(self):
        assert parse_partition("[4,2,1]") == Partition((4, 2, 1))
        assert parse_partition("[]") == EMPTY
        assert parse_partition(" [ 4 , 2 , 1 ] ") == Partition((4, 2, 1))
        assert parse_partition("[\u20032,\t1 ]") == Partition((2, 1))  # any whitespace around parts

    def test_format(self):
        assert format_partition(Partition((4, 2, 1))) == "[4,2,1]"
        assert format_partition(EMPTY) == "[]"

    def test_round_trip(self):
        for shape in BOX_SHAPES:
            assert parse_partition(format_partition(shape)) == shape


# Every refusal of a public call, whichever module the call lives in: the one place tier-1 pins one.
# Counts, box coordinates and every integer a value holds (``Partition`` parts, ``Permutation``
# images, ``Filling`` entries, ``Polynomial`` exponents and coefficients, the letters of an
# ``is_lattice`` word) are refused by ``partitions._count``, the items of a sequence through
# ``partitions._ints``, and argument types by ``partitions._typed``. Structure checks (weakly
# decreasing parts, containment, row count and row lengths, a permutation of 1..n, exponent width,
# symmetry and homogeneity) and the parsers keep their own messages.
ONE, TWO, P21, P421 = Partition((1,)), Partition((2,)), Partition((2, 1)), Partition((4, 2, 1))
BOX, NO_BOX = Filling.from_rows([[1]]), Filling.from_rows(())
T = Filling.from_rows([[1, 2], [3]])  # holds a 1, so True, read as 1, was once "already an entry" of it
SKEW = Filling.from_rows([[1, 2], [3]], inner=ONE)
ROW = Filling.from_rows([[1, 2, 3]])
X = Polynomial(2, {(1, 0): 5})

REFUSALS = [
    # the call (partitions in brackets, {} for the bad value), the call on that value, the bad values,
    # the exception type and the exact message
    ("weight({})", BOX.weight, (True, 1.5, 1.0), TypeError, "bound must be an integer, got {!r}"),
    # the bound is refused before any entry is read, so neither filling blames an entry
    ("weight({})", BOX.weight, (-1,), ValueError, "bound must be nonnegative, got {!r}"),
    ("empty.weight({})", NO_BOX.weight, (-1,), ValueError, "bound must be nonnegative, got {!r}"),
    ("[[1,3],[2]].weight({})", Filling.from_rows([[1, 3], [2]]).weight, (2,), EntryExceedsBoundError,
     "entry 3 exceeds bound {!r}"),
    ("entry{}", lambda box: SKEW.entry(*box), ((0, 0), (0, -1), (2, 0)), InvalidBoxError, "box {} is not in [3,1]/[1]"),
    # a float column once read as a box, or as a list index
    ("entry(0,{})", partial(SKEW.entry, 0), (1.5, True), TypeError, "col must be an integer, got {!r}"),
    ("has_box(0,{})", partial(SKEW.shape.has_box, 0), (1.5, "1"), TypeError, "col must be an integer, got {!r}"),
    ("hook_length({},0)", lambda row: P21.hook_length(row, 0), (0.0, None), TypeError, "row must be an integer, got {!r}"),
    ("hook_length{}", lambda box: P21.hook_length(*box), ((0, 2), (-1, 0), (0, -1)), InvalidBoxError, "box {} is not in [2,1]"),
    ("[4,2,1].hook_length{}", lambda box: P421.hook_length(*box), ((1, 2), (3, 0)), InvalidBoxError,
     "box {} is not in [4,2,1]"),
    # True once read as row 1, and a float as a bare tuple index
    ("part({})", P21.part, (True, 1.5, "0"), TypeError, "row must be an integer, got {!r}"),
    ("row_span({})", P21.as_skew().row_span, (0.0, None), TypeError, "row must be an integer, got {!r}"),
    ("ssyt({},2)", lambda shape: enumerate_ssyt(shape, 2), ((2, 1), 3), TypeError,
     "shape must be a Partition or SkewShape, got {!r}"),
    ("ssyt([1],{})", partial(enumerate_ssyt, ONE), (True, False, 1.0, 2.0), TypeError,
     "entry bound must be an integer, got {!r}"),
    ("ssyt([1],{})", partial(enumerate_ssyt, ONE), (-1,), ValueError, "entry bound must be nonnegative, got {!r}"),
    ("syt({})", enumerate_syt, ((2, 1), 3), TypeError, "shape must be a Partition, got {!r}"),
    ("bk({},1)", lambda filling: bender_knuth(filling, 1), ([[1, 2]], ((1, 2),), None), TypeError,
     "filling must be a Filling, got {!r}"),
    # a float index once returned the filling unchanged, and True read as an entry
    ("bk(T,{})", partial(bender_knuth, T), (1.5, 1.0, True), TypeError, "index must be an integer, got {!r}"),
    ("bk(T,{})", partial(bender_knuth, T), (0,), ValueError, "index must be at least 1, got {!r}"),
    ("bk({},1)", lambda rows: bender_knuth(Filling.from_rows(rows), 1), ([[2, 1, 1, 4], [6, 2], [4]],), ValueError,
     "operation is only defined on semistandard fillings"),
    ("count({})", count_standard_tableaux, ((2, 1), 3), TypeError, "shape must be a Partition, got {!r}"),
    # refused at the call, though the walk is lazy
    ("partitions_of({})", partitions_of, (2.0, 0.0, True, False, "2"), TypeError, "n must be an integer, got {!r}"),
    ("partitions_of({})", partitions_of, (-1,), ValueError, "n must be nonnegative, got {!r}"),
    ("SkewShape({})", SkewShape, ((2, 1),), TypeError, "outer must be a Partition, got {!r}"),
    ("SkewShape({},[1])", lambda outer: SkewShape(outer, ONE), ((2, 1),), TypeError,
     "outer must be a Partition, got {!r}"),
    ("SkewShape([2,1],{})", partial(SkewShape, Partition((2, 1))), ((1,),), TypeError,
     "inner must be a Partition, got {!r}"),
    ("SkewShape([2,2],{})", partial(SkewShape, Partition((2, 2))), (Partition((3,)),), NotContainedError,
     "[3] is not contained in [2,2]"),
    ("Polynomial({})", Polynomial, (2.0, True, False), TypeError, "width must be an integer, got {!r}"),
    ("Polynomial({},terms)", lambda width: Polynomial(width, {(1, 0): 1}), (2.0,), TypeError,
     "width must be an integer, got {!r}"),
    ("Polynomial({})", Polynomial, (-1,), ValueError, "width must be nonnegative, got {!r}"),
    # an unhashable shape or width is named too: the checks run before the table
    ("schur({},3)", lambda shape: schur_polynomial(shape, 3), ((2, 1), 3, None, [2, 1]), TypeError,
     "shape must be a Partition, got {!r}"),
    ("schur([1],{})", partial(schur_polynomial, ONE), (True, False, 1.0, 2.0, [3]), TypeError,
     "width must be an integer, got {!r}"),
    ("schur([1],{})", partial(schur_polynomial, ONE), (-1,), ValueError, "width must be nonnegative, got {!r}"),
    ("schur_expand({})", schur_expand, (5,), TypeError, "poly must be a Polynomial, got {!r}"),
    # a symmetric-looking leading term with a broken tail, and an orbit short of (0, 1, 1)
    ("schur_expand({})", schur_expand, (Polynomial.monomial(2, (1, 2)), Polynomial(2, {(2, 0): 1, (1, 1): 1}),
                                        Polynomial(3, {(1, 1, 0): 1, (1, 0, 1): 1})), NotSymmetricError,
     "polynomial is not invariant under permuting its variables"),
    # x1 + 1 is neither homogeneous nor symmetric: homogeneity is reported
    ("schur_expand({})", schur_expand, (Polynomial(2, {(1, 0): 1, (0, 0): 1}),
                                        Polynomial(2, {(1, 0): 1, (0, 1): 1, (0, 0): 1})), NotHomogeneousError,
     "expansion requires a homogeneous polynomial"),
    ("reverse_reading_word({})", reverse_reading_word, (((1, 2),),), TypeError, "filling must be a Filling, got {!r}"),
    # a str once ended in a bare comparison error, and a word with a letter below 1 read as a lattice word
    ("is_lattice((1,{}))", lambda v: is_lattice((1, v)), (1.5, True, "1"), TypeError, "letter must be an integer, got {!r}"),
    ("is_lattice((1,{}))", lambda v: is_lattice((1, v)), (0, -1), ValueError, "letter must be at least 1, got {!r}"),
    ("is_lattice({})", is_lattice, ("12",), TypeError, "letter must be an integer, got '1'"),
    ("lr({},[1],[2])", lambda inner: lr_coefficient(inner, ONE, TWO), ((1,),), TypeError,
     "inner must be a Partition, got {!r}"),
    ("lr([1],{},[2])", lambda content: lr_coefficient(ONE, content, TWO), ((1,),), TypeError,
     "content must be a Partition, got {!r}"),
    ("lr([1],[1],{})", lambda outer: lr_coefficient(ONE, ONE, outer), ((2,),), TypeError,
     "outer must be a Partition, got {!r}"),
    # the outer shape is named first
    ("lr((1,),(1,),{})", lambda outer: lr_coefficient((1,), (1,), outer), ((2,),), TypeError,
     "outer must be a Partition, got {!r}"),
    ("lr_fillings([2],{},[1])", lambda inner: enumerate_lr_fillings(TWO, inner, ONE), ((1,),), TypeError,
     "inner must be a Partition, got {!r}"),
    ("lr_fillings([2],[1],{})", lambda content: enumerate_lr_fillings(TWO, ONE, content), ((1,),), TypeError,
     "content must be a Partition, got {!r}"),
    ("lr_fillings({},[1],[1])", lambda outer: enumerate_lr_fillings(outer, ONE, ONE), ((2,),), TypeError,
     "outer must be a Partition, got {!r}"),
    ("lr_fillings({},(1,),(1,))", lambda outer: enumerate_lr_fillings(outer, (1,), (1,)), ((2,),), TypeError,
     "outer must be a Partition, got {!r}"),
    ("row_insert({},2)", lambda tableau: row_insert(tableau, 2), (((1, 3),),), TypeError,
     "tableau must be a Filling, got {!r}"),
    ("row_insert(T,{})", partial(row_insert, T), (True, 2.5), TypeError, "value must be an integer, got {!r}"),
    ("row_insert(T,{})", partial(row_insert, T), (0,), ValueError, "value must be at least 1, got {!r}"),
    # bumping an equal entry would stack two equal entries in one column
    ("row_insert([[1,2]],{})", partial(row_insert, Filling.from_rows([[1, 2]])), (1, 2), ValueError,
     "{} is already an entry of the tableau"),
    ("row_insert([[1,3],[2]],{})", partial(row_insert, Filling.from_rows([[1, 3], [2]])), (2,), ValueError,
     "{} is already an entry of the tableau"),
    # bumping into such rows returned ((3, 1, 2),) and ((1, 2), (1, 3)), and dropped the inner shape
    ("row_insert({},2)", lambda rows: row_insert(Filling.from_rows(rows), 2), ([(3, 1)], [(1, 3), (1,)]), ValueError,
     "need a straight semistandard tableau, got rows {}"),
    ("row_insert({}/[1],2)", lambda rows: row_insert(Filling.from_rows(rows, inner=[1]), 2), ([(3,), (4,)],),
     ValueError, "need a straight semistandard tableau, got rows {}"),
    ("inverse_rsk((u,u))", inverse_rsk, ((ROW, ROW),), TypeError, "pair must be a RskPair, got {!r}"),
    ("RskPair({},ROW)", lambda t: RskPair(t, ROW), (((1, 2, 3),),), TypeError, "insertion must be a Filling, got {!r}"),
    ("RskPair(ROW,{})", partial(RskPair, ROW), (((1, 2, 3),),), TypeError, "recording must be a Filling, got {!r}"),
    ("RskPair(T,ROW)", partial(RskPair, T), (ROW,), MalformedPairError, "need two straight tableaux of equal shape"),
    ("RskPair({0}/[1],{0}/[1])", lambda rows: RskPair(*[Filling.from_rows(rows, inner=[1])] * 2), ([[1]],),
     MalformedPairError, "need two straight tableaux of equal shape"),
    ("RskPair({0},{0})", lambda rows: RskPair(*[Filling.from_rows(rows)] * 2), ([[1, 1], [2]],), MalformedPairError,
     "both tableaux must be standard"),
    ("Filling({},((1,),))", lambda shape: Filling(shape, ((1,),)), (ONE,), TypeError,
     "shape must be a SkewShape, got {!r}"),
    ("Filling([2,1],{})", partial(Filling, P21.as_skew()), (((1,), (2,)),), ValueError,
     "row 0 of [2,1] needs 2 entries, got 1"),
    ("Filling([2,1],{})", partial(Filling, P21.as_skew()), (((1, 1),),), ValueError, "expected 2 rows for [2,1], got 1"),
    # the row count comes first, then each row's length before its entries
    ("Filling([2,2,1],{})", partial(Filling, Partition((2, 2, 1)).as_skew()), (((1, 2), (0, 4)),), ValueError,
     "expected 3 rows for [2,2,1], got 2"),
    ("Filling([2,2,1],{})", partial(Filling, Partition((2, 2, 1)).as_skew()), (((1, 2), (3,), (0,)),), ValueError,
     "row 1 of [2,2,1] needs 2 entries, got 1"),
    ("Filling([2,2,1],{})", partial(Filling, Partition((2, 2, 1)).as_skew()), (((0, 2), (3,), (5,)),), ValueError,
     "entry must be at least 1, got 0"),
    ("Filling([2,2,1],{})", partial(Filling, Partition((2, 2, 1)).as_skew()), (((1, 2), (3, 4, 5), (True,)),),
     ValueError, "row 1 of [2,2,1] needs 2 entries, got 3"),
    ("Filling([3,2]/[1],{})", partial(Filling, SkewShape(Partition((3, 2)), ONE)), (((1, 2, 3), (0, 1)),), ValueError,
     "row 0 of [3,2]/[1] needs 2 entries, got 3"),
    # the integers a value holds: a bad one comes before a True, so these also pin that the first is named
    ("Partition((2,{},True))", lambda v: Partition((2, v, True)), (1.5, True, "1"), TypeError, "part must be an integer, got {!r}"),
    ("Partition((2,{}))", lambda v: Partition((2, v)), (-1,), ValueError, "part must be nonnegative, got {!r}"),
    ("Partition({})", Partition, ((3, -1),), ValueError, "part must be nonnegative, got -1"),
    ("Partition({})", Partition, ((2.5, 1),), TypeError, "part must be an integer, got 2.5"),
    ("Partition({})", Partition, ((True,),), TypeError, "part must be an integer, got True"),
    ("Partition({})", Partition, ((2, False),), TypeError, "part must be an integer, got False"),
    ("Partition({})", Partition, ((2, 3),), NotWeaklyDecreasingError, "[2, 3] is not weakly decreasing after zero removal"),
    ("parse_partition({})", parse_partition, ("4,2,1", "(4,2)"), ValueError, "expected bracketed parts like [4,2,1], got {!r}"),
    # int() reads each part of the last six; the parser reads none
    ("parse_partition({})", parse_partition, ("[4 2 1]", "[a]", "[2_1]", "[٣]", "[+2]", "[2,+1]", "[²]", "[3,1_]"),
     ValueError, "expected comma-separated integers, got {!r}"),
    ("parse_partition({})", parse_partition, ("[2,3]",), NotWeaklyDecreasingError,
     "[2, 3] is not weakly decreasing after zero removal"),
    ("parse_partition({})", parse_partition, ("[2,-1]",), ValueError, "part must be nonnegative, got -1"),
    ("Permutation((1,{},True))", lambda v: Permutation((1, v, True)), (2.0, 2.5, True, "2"), TypeError,
     "image must be an integer, got {!r}"),
    ("Permutation(({},))", lambda v: Permutation((v,)), (True,), TypeError, "image must be an integer, got {!r}"),
    ("Permutation(({},1.0))", lambda v: Permutation((v, 1.0)), (2.0,), TypeError, "image must be an integer, got {!r}"),
    # refused as a permutation, before any insertion
    ("rsk([2,{}])", lambda v: rsk([2, v]), (True,), TypeError, "image must be an integer, got {!r}"),
    ("Permutation({})", Permutation, ([1, 3], [1, 1], [0, 1]), ValueError, "{} is not a permutation of 1..2"),
    ("Permutation({})", Permutation, ([1, 1, 2], [2, 3, 4]), ValueError, "{} is not a permutation of 1..3"),
    # int() reads most of the ASCII-digit refusals, the glued ones as one entry, and deleting the space
    # inside an entry would read "1 0" as 10 and print the identity on 1..10
    ("parse_permutation({})", parse_permutation, ("21x", "2,a", "1_0,2,3,4,5,6,7,8,9,1", "+2,1", "2,+1", "٢١", "٢,١",
                                                  "²1", "1,²", "21_", "2-1", "-21", "+21", "1,2,3,4,5,6,7,8,9,1 0",
                                                  "1 0,2,3,4,5,6,7,8,9,1", "2,1 3"),
     ValueError, "bad one-line notation: {!r}"),
    ("entries[[1,{}],[True]]", lambda v: Filling.from_rows([[1, v], [True]]), (2.0, True, "2"), TypeError,
     "entry must be an integer, got {!r}"),
    ("Filling([2],((1,{}),))", lambda v: Filling(TWO.as_skew(), ((1, v),)), (True, 2.0), TypeError, "entry must be an integer, got {!r}"),
    ("entries[[1,{}],[-1]]", lambda v: Filling.from_rows([[1, v], [-1]]), (0,), ValueError, "entry must be at least 1, got {!r}"),
    ("entries{}", Filling.from_rows, ([[1, 0]],), ValueError, "entry must be at least 1, got 0"),
    ("Polynomial(2,{{(1,{}):1,(True,0):1}})", lambda e: Polynomial(2, {(1, e): 1, (True, 0): 1}), (1.5, True, "2"), TypeError,
     "exponent must be an integer, got {!r}"),
    ("Polynomial(2,{{(1,{}):1}})", lambda e: Polynomial(2, {(1, e): 1}), (-1,), ValueError, "exponent must be nonnegative, got {!r}"),
    ("Polynomial(1,{{({},):1}})", lambda e: Polynomial(1, {(e,): 1}), (1.5, 1.0, True, False), TypeError,
     "exponent must be an integer, got {!r}"),
    ("Polynomial(1,{{({},):1}})", lambda e: Polynomial(1, {(e,): 1}), (-1,), ValueError, "exponent must be nonnegative, got {!r}"),
    ("monomial(2,(1,{}))", lambda e: Polynomial.monomial(2, (1, e)), (2.0,), TypeError, "exponent must be an integer, got {!r}"),
    ("Polynomial(2,{{{}:1}})", lambda e: Polynomial(2, {e: 1}), ((1, 0, 0),), WidthMismatchError,
     "exponent vector {} does not have width 2"),
    ("X.coefficient((1,{}))", lambda e: X.coefficient((1, e)), (1.5, 1.0, True), TypeError, "exponent must be an integer, got {!r}"),
    ("X.coefficient((1,{}))", lambda e: X.coefficient((1, e)), (-1,), ValueError, "exponent must be nonnegative, got {!r}"),
    ("Polynomial(1,{{(1,):{},(2,):True}})", lambda c: Polynomial(1, {(1,): c, (2,): True}), (1.5, True, "2"), TypeError,
     "coefficient must be an integer, got {!r}"),
    ("Polynomial(1,{{(1,):{}}})", lambda c: Polynomial(1, {(1,): c}), (0.5, True), TypeError,
     "coefficient must be an integer, got {!r}"),
    ("zero({}).leading_term()", lambda width: Polynomial.zero(width).leading_term(), (3,), ValueError,
     "the zero polynomial has no leading term"),
    # a wrong width once read as an absent term, and True once added as the constant 1, though it never scaled
    ("X.coefficient({})", X.coefficient, ((1,), (1, 0, 0)), WidthMismatchError, "exponent vector {} does not have width 2"),
    # {.__class__.__name__} names the type of the bad operand
    ("X+{}", lambda v: X + v, (True, False, 2.0), TypeError,
     "unsupported operand type(s) for +: 'Polynomial' and '{.__class__.__name__}'"),
    ("X-{}", lambda v: X - v, (True, "x"), TypeError,
     "unsupported operand type(s) for -: 'Polynomial' and '{.__class__.__name__}'"),
    ("{}-X", lambda v: v - X, ("x",), TypeError, "unsupported operand type(s) for -: 'str' and 'Polynomial'"),
    ("X*{}", lambda v: X * v, (True, False, 2.0), TypeError,
     "unsupported operand type(s) for *: 'Polynomial' and '{.__class__.__name__}'"),
    ("{}*X", lambda v: v * X, (True, False, 2.0), TypeError,
     "unsupported operand type(s) for *: '{.__class__.__name__}' and 'Polynomial'"),
    ("X+{}", lambda v: X + v, (Polynomial.monomial(3, (1, 0, 0)),), WidthMismatchError, "widths differ: 2 vs 3"),
    ("X*{}", lambda v: X * v, (Polynomial.monomial(3, (1, 0, 0)),), WidthMismatchError, "widths differ: 2 vs 3"),
    ("zero(2)*zero({})", lambda width: Polynomial.zero(2) * Polynomial.zero(width), (3,), WidthMismatchError,
     "widths differ: 2 vs {}"),
    # the pair loop of two wide products checks the widths too
    ("x^1000[30]*x[{}]", lambda width: Polynomial.monomial(30, (1000,) * 30) * Polynomial.monomial(width, (1,) * width),
     (29,), WidthMismatchError, "widths differ: 30 vs {}"),
]


@pytest.mark.parametrize("call, value, error, message", [
    pytest.param(call, value, error, message.format(value), id=pattern.format(repr(value).replace(" ", "")))
    for pattern, call, values, error, message in REFUSALS for value in values
])
def test_refuses(call, value, error, message):
    with pytest.raises(error) as exc:
        call(value)
    assert type(exc.value) is error and str(exc.value) == message

