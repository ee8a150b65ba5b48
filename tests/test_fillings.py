import itertools
import tracemalloc

import pytest
from frozen import frozen_heights, frozen_search

from tableaux import (
    EMPTY,
    Filling,
    Partition,
    SkewShape,
    bender_knuth,
    enumerate_lr_fillings,
    enumerate_ssyt,
    enumerate_syt,
    is_lattice,
    partitions_of,
)

SEMISTANDARD_EXAMPLE = Filling.from_rows([[1, 2, 2, 4], [2, 3], [4]])
STANDARD_EXAMPLE = Filling.from_rows([[1, 3, 4, 6], [2, 7], [5]])
ARBITRARY_FILLING = Filling.from_rows([[2, 1, 1, 4], [6, 2], [4]])


def flat(rows):
    return tuple(v for row in rows for v in row)


def reverse_flat(rows):
    return tuple(v for row in rows for v in reversed(row))


def brute_force_ssyt(shape, bound):
    """All assignments in {1..bound}^boxes, filtered by the monotonicity rules."""
    skew = shape if isinstance(shape, SkewShape) else shape.as_skew()
    index = {box: i for i, box in enumerate(skew.boxes())}
    horizontal = [(index[(r, c - 1)], i) for (r, c), i in index.items() if (r, c - 1) in index]
    vertical = [(index[(r - 1, c)], i) for (r, c), i in index.items() if (r - 1, c) in index]
    spans = [skew.row_span(r) for r in range(skew.nrows)]
    survivors = set()
    for assign in itertools.product(range(1, bound + 1), repeat=len(index)):
        if any(assign[a] > assign[b] for a, b in horizontal):
            continue
        if any(assign[a] >= assign[b] for a, b in vertical):
            continue
        rows, k = [], 0
        for lo, hi in spans:
            rows.append(assign[k : k + hi - lo])
            k += hi - lo
        survivors.add(tuple(rows))
    return survivors


def brute_force_syt(shape):
    """Permutations of 1..n cut into the rows of ``shape``, kept when rows and columns increase."""
    found = []
    for perm in itertools.permutations(range(1, shape.size + 1)):
        rows, k = [], 0
        for part in shape.parts:
            rows.append(perm[k : k + part])
            k += part
        if all(a < b for row in rows for a, b in zip(row, row[1:])) and all(
            a < b for upper, lower in zip(rows, rows[1:]) for a, b in zip(upper, lower)
        ):
            found.append(tuple(rows))
    return sorted(found, key=flat)


def subpartitions(shape):
    """Every partition whose diagram fits inside ``shape``."""
    return [inner for k in range(shape.size + 1) for inner in partitions_of(k) if shape.contains(inner)]


def assert_rebuilds(filling):
    """An enumerated filling equals itself rebuilt through the validating constructor."""
    assert Filling(filling.shape, filling.rows) == filling
    assert all(type(v) is int for row in filling.rows for v in row)
    assert filling.is_semistandard()


class TestStructure:
    def test_accepts_an_int_subclass(self):
        class Label(int):
            pass

        filling = Filling.from_rows([[Label(1), Label(2)], [Label(3)]])
        assert filling == Filling.from_rows([[1, 2], [3]]) and filling.is_standard()

    def test_from_rows_infers_skew_outer(self):
        filling = Filling.from_rows([[1], [1], [2]], inner=[2, 1])
        assert filling.shape == SkewShape(Partition((3, 2, 1)), Partition((2, 1)))
        assert filling.entry(0, 2) == 1
        assert filling.entry(2, 0) == 2
        # rows not given, down to the inner shape's last row, hold no boxes
        assert Filling.from_rows([], inner=[1]) == Filling(SkewShape(Partition((1,)), Partition((1,))), [()])
        filling = Filling.from_rows([[1]], inner=[2, 1])
        assert filling.shape == SkewShape(Partition((3, 1)), Partition((2, 1)))
        assert filling.rows == ((1,), ())

    def test_empty_filling(self):
        filling = Filling.from_rows(())
        assert filling.shape.size == 0
        assert filling.is_standard()

    def test_ascii_rendering(self):
        filling = Filling.from_rows([[1], [1], [2]], inner=[2, 1])
        assert filling.to_ascii() == ". . 1\n. 1\n2"
        assert SEMISTANDARD_EXAMPLE.to_ascii() == "1 2 2 4\n2 3\n4"
        assert str(Filling.from_rows([[1, 2], [3]])) == "1 2\n3"


def per_box_semistandard(filling):
    """Reference: rows weakly increase, and each box exceeds the box above it, looked up box by box."""
    for row in filling.rows:
        for a, b in zip(row, row[1:]):
            if a > b:
                return False
    shape = filling.shape
    for r, c in shape.boxes():
        if shape.has_box(r - 1, c) and filling.entry(r - 1, c) >= filling.entry(r, c):
            return False
    return True


def per_box_standard(filling):
    entries = sorted(v for row in filling.rows for v in row)
    return entries == list(range(1, filling.shape.size + 1)) and per_box_semistandard(filling)


def fillings_of(skew, values):
    """Every filling of ``skew`` whose reading word is one of ``values``."""
    spans = [skew.row_span(r) for r in range(skew.nrows)]
    for word in values:
        rows, k = [], 0
        for lo, hi in spans:
            rows.append(word[k : k + hi - lo])
            k += hi - lo
        yield Filling(skew, tuple(rows))


def skew_shapes(max_boxes):
    """Every straight and skew shape whose outer diagram has at most ``max_boxes`` boxes."""
    return [SkewShape(outer, inner) for n in range(max_boxes + 1)
            for outer in partitions_of(n) for inner in subpartitions(outer)]


def frozen_ssyt_rows(shape, bound):
    """Semistandard rows from the earlier callback of ``enumerate_ssyt``, run through :func:`frozen_search`."""
    skew = shape if isinstance(shape, SkewShape) else shape.as_skew()

    def candidates(k, left, up):
        return iter(range(max(left, up + 1), bound + 1))

    return list(frozen_search(skew, candidates))


def frozen_syt_rows(shape):
    """Standard rows from the earlier callback of ``enumerate_syt``, run through :func:`frozen_search`."""
    n = shape.size
    height = frozen_heights(shape.parts)
    high = [n - (shape.parts[r] - 1 - c) - (height[c] - 1 - r) for r, c in shape.boxes()]
    used = [False] * (n + 1)

    def candidates(k, left, up):
        for v in range(max(left, up) + 1, high[k] + 1):
            if not used[v]:
                used[v] = True
                yield v
                used[v] = False

    return list(frozen_search(shape.as_skew(), candidates))

# skew shapes with a row that shares no column with the row above it, each with a
# filling that is semistandard although that row's entries are smaller than those above
NO_OVERLAP = [
    ((3, 1), (2,), [[2], [1]]),
    ((4, 2), (3, 1), [[2], [1]]),
    ((5, 1, 1), (4,), [[3], [1], [2]]),
]


class TestValidators:
    def test_row_slices_match_per_box_reference_exhaustively(self):
        checked = 0
        for skew in skew_shapes(7):
            for filling in fillings_of(skew, itertools.product((1, 2, 3), repeat=skew.size)):
                assert filling.is_semistandard() == per_box_semistandard(filling), filling
                assert filling.is_standard() == per_box_standard(filling), filling
                checked += 1
        assert checked == 71739

    def test_standard_matches_per_box_reference_on_permutations(self):
        for skew in skew_shapes(6):
            for filling in fillings_of(skew, itertools.permutations(range(1, skew.size + 1))):
                assert filling.is_standard() == per_box_standard(filling), filling

    @pytest.mark.parametrize("outer, inner, rows", NO_OVERLAP)
    def test_rows_without_column_overlap(self, outer, inner, rows):
        skew = SkewShape(Partition(outer), Partition(inner))
        assert Filling(skew, rows).is_semistandard()
        for filling in fillings_of(skew, itertools.product((1, 2, 3), repeat=skew.size)):
            assert filling.is_semistandard() == per_box_semistandard(filling), filling

    def test_fixed_examples_match_per_box_reference(self):
        # by hand: semistandard, standard, neither, one box, a column fault, a skew column over an inner box
        examples = [
            SEMISTANDARD_EXAMPLE,
            STANDARD_EXAMPLE,
            ARBITRARY_FILLING,
            Filling.from_rows([[5]]),
            Filling.from_rows([[1, 2], [1]]),
            Filling.from_rows([[1], [1, 2]], inner=[1]),
            Filling.from_rows([[1], [1, 1]], inner=[1]),
            Filling.from_rows([]),
        ]
        for filling in examples:
            assert filling.is_semistandard() == per_box_semistandard(filling), filling
            assert filling.is_standard() == per_box_standard(filling), filling


class TestWeight:
    def test_counts_entries(self):
        assert Filling.from_rows([[1, 1], [2]]).weight(3) == (2, 1, 0)
        assert Filling.from_rows([[1, 3], [2]]).weight(3) == (1, 1, 1)

    def test_standard_weight_is_all_ones(self):
        assert STANDARD_EXAMPLE.weight(7) == (1,) * 7


class TestEnumerateSsyt:
    def test_single_box(self):
        assert len(list(enumerate_ssyt(Partition((1,)), 5))) == 5
        # bound 0 is zero variables, as for schur_polynomial: no box can be filled
        assert list(enumerate_ssyt(Partition((1,)), 0)) == []

    def test_matches_brute_force_small_shapes(self):
        for n in range(7):
            for shape in partitions_of(n):
                for bound in range(1, 5):
                    got = [f.rows for f in enumerate_ssyt(shape, bound)]
                    assert got == sorted(brute_force_ssyt(shape, bound), key=flat), (shape, bound)

    def test_matches_brute_force_seven_and_eight_boxes(self):
        for n in (7, 8):
            for shape in partitions_of(n):
                for bound in (3, 4):
                    got = [f.rows for f in enumerate_ssyt(shape, bound)]
                    assert got == sorted(brute_force_ssyt(shape, bound), key=flat), (shape, bound)

    def test_long_row_does_not_recurse(self):
        assert [f.rows for f in enumerate_ssyt(Partition((1200,)), 1)] == [((1,) * 1200,)]

    def test_long_column_does_not_recurse(self):
        # islice keeps a search that wrongly admits more fillings from filling memory too
        rows = [f.rows for f in itertools.islice(enumerate_ssyt(Partition((1,) * 1200), 1200), 2)]
        assert rows == [tuple((v,) for v in range(1, 1201))]

    def test_no_boxes_need_no_values(self):
        # the value tables of a search over no boxes must not grow with the bound
        tracemalloc.start()
        try:
            for shape in (EMPTY, SkewShape(Partition((2, 1)), Partition((2, 1)))):
                for bound in (0, 10**6):
                    assert [f.rows for f in enumerate_ssyt(shape, bound)] == [((),) * shape.nrows]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_matches_frozen_search_straight_shapes_through_nine_boxes(self):
        for n in range(10):
            for shape in partitions_of(n):
                for bound in range(1, 5):
                    got = [f.rows for f in enumerate_ssyt(shape, bound)]
                    assert got == frozen_ssyt_rows(shape, bound), (shape, bound)

    def test_matches_frozen_search_skew_shapes_through_seven_boxes(self):
        for skew in skew_shapes(7):
            for bound in range(1, 4):
                got = [f.rows for f in enumerate_ssyt(skew, bound)]
                assert got == frozen_ssyt_rows(skew, bound), (skew, bound)

    def test_matches_brute_force_skew_shapes(self):
        cases = [
            ((3, 2, 1), (2, 1)),
            ((3, 2), (1,)),
            ((2, 2), (1,)),
            ((3, 3), (2,)),
            ((4, 2), (1,)),
            ((2, 2, 1), (1, 1)),
            ((4, 3, 1), (2, 1)),
        ]
        for outer, inner in cases:
            shape = SkewShape(Partition(outer), Partition(inner))
            for bound in range(1, 5):
                got = [f.rows for f in enumerate_ssyt(shape, bound)]
                assert got == sorted(brute_force_ssyt(shape, bound), key=flat), (shape, bound)


class TestEnumerateSyt:
    def test_long_row_does_not_recurse(self):
        rows = [f.rows for f in enumerate_syt(Partition((1200,)))]
        assert rows == [(tuple(range(1, 1201)),)]

    def test_long_column_does_not_recurse(self):
        rows = [f.rows for f in itertools.islice(enumerate_syt(Partition((1,) * 1200)), 2)]
        assert rows == [tuple((v,) for v in range(1, 1201))]

    def test_matches_frozen_search_through_ten_boxes(self):
        for n in range(11):
            for shape in partitions_of(n):
                got = [f.rows for f in enumerate_syt(shape)]
                assert got == frozen_syt_rows(shape), shape

    def test_matches_brute_force_up_to_seven(self):
        for n in range(8):
            for shape in partitions_of(n):
                got = [f.rows for f in enumerate_syt(shape)]
                assert got == brute_force_syt(shape), shape


class TestEnumerateLrFillings:
    def test_matches_brute_force_up_to_degree_six(self):
        # semistandard fillings of outer/inner with entries <= len(content), kept
        # when the weight is the content and the reverse reading word is lattice
        for total in range(7):
            for outer in partitions_of(total):
                for inner in subpartitions(outer):
                    skew = SkewShape(outer, inner)
                    for content in partitions_of(total - inner.size):
                        bound = len(content.parts)
                        want = sorted(
                            (
                                rows
                                for rows in brute_force_ssyt(skew, bound)
                                if tuple(flat(rows).count(i) for i in range(1, bound + 1))
                                == content.parts
                                and is_lattice(reverse_flat(rows))
                            ),
                            key=reverse_flat,
                        )
                        got = [w.rows for w in enumerate_lr_fillings(outer, inner, content)]
                        assert got == want, (outer, inner, content)


def frozen_bender_knuth(filling, index):
    """A frozen copy of the library's earlier involution, which looked up each box's partners box by box."""
    small, large = index, index + 1
    shape = filling.shape
    new_rows = [list(row) for row in filling.rows]
    for r, row in enumerate(filling.rows):
        off = shape.inner.part(r)
        free_small = []
        free_large = []
        for j, v in enumerate(row):
            c = off + j
            if v == small:
                if not (shape.has_box(r + 1, c) and filling.entry(r + 1, c) == large):
                    free_small.append(j)
            elif v == large:
                if not (shape.has_box(r - 1, c) and filling.entry(r - 1, c) == small):
                    free_large.append(j)
        slots = free_small + free_large  # small entries sit left of large ones
        flip = len(free_large)
        for pos, j in enumerate(slots):
            new_rows[r][j] = small if pos < flip else large
    return Filling(shape, tuple(tuple(row) for row in new_rows))


class TestBenderKnuth:
    def test_swaps_the_unique_fillings(self):
        result = bender_knuth(Filling.from_rows([[1, 1], [2]]), 1)
        assert result.rows == ((1, 2), (2,))
        back = bender_knuth(result, 1)
        assert back.rows == ((1, 1), (2,))

    def test_fixed_point_when_weight_already_symmetric(self):
        filling = Filling.from_rows([[1, 3], [2]])
        assert bender_knuth(filling, 1) == filling

    def test_works_on_skew_fillings(self):
        shape = SkewShape(Partition((3, 2)), Partition((1,)))
        for filling in enumerate_ssyt(shape, 3):
            for i in (1, 2):
                image = bender_knuth(filling, i)
                assert image.is_semistandard()
                assert bender_knuth(image, i) == filling

    def test_matches_frozen_reference_on_skew_shapes(self, bender_knuth_calls):
        for filling, i in bender_knuth_calls:
            assert bender_knuth(filling, i) == frozen_bender_knuth(filling, i), (filling, i)


class TestTrustedEnumeration:
    """Enumerators skip validation, so check their output against the validating path."""

    def test_ssyt_straight(self):
        for n in range(6):
            for shape in partitions_of(n):
                for bound in range(1, 4):
                    for filling in enumerate_ssyt(shape, bound):
                        assert_rebuilds(filling)

    def test_ssyt_skew(self):
        for skew in skew_shapes(5):
            for filling in enumerate_ssyt(skew, 3):
                assert_rebuilds(filling)

    def test_syt(self):
        for n in range(7):
            for shape in partitions_of(n):
                for filling in enumerate_syt(shape):
                    assert_rebuilds(filling)
                    assert filling.is_standard()

    def test_lr_fillings(self):
        for n in range(7):
            for outer in partitions_of(n):
                for inner in subpartitions(outer):
                    for content in partitions_of(n - inner.size):
                        for filling in enumerate_lr_fillings(outer, inner, content):
                            assert_rebuilds(filling)
                            assert filling.shape == SkewShape(outer, inner)
