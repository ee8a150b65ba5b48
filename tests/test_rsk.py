import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tableaux import (
    Filling,
    Permutation,
    RskPair,
    enumerate_ssyt,
    format_permutation,
    inverse_rsk,
    lis_length,
    parse_permutation,
    partitions_of,
    row_insert,
    rsk,
    rsk_trace,
)

SIGMA = Permutation((2, 1, 4, 5, 3))


@st.composite
def permutations(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    return Permutation(tuple(draw(st.permutations(list(range(1, n + 1))))))


def brute_force_lis(images):
    """Oracle: scan every subsequence, longest increasing one wins."""
    for size in range(len(images), 0, -1):
        for positions in itertools.combinations(range(len(images)), size):
            values = [images[i] for i in positions]
            if all(a < b for a, b in zip(values, values[1:])):
                return size
    return 0


def scan_insert(rows, value):
    """Bump ``value`` into ``rows`` in place, each bump found by a left-to-right scan
    for the first strictly larger entry; return the row of the new box.

    A reference that shares no code with ``tableaux.rsk``: no ``bisect``.
    """
    for r, row in enumerate(rows):
        for j, entry in enumerate(row):
            if entry > value:
                row[j], value = value, entry
                break
        else:
            row.append(value)
            return r
    rows.append([value])
    return len(rows) - 1


def scan_insertion(images):
    """The (insertion, recording) rows of a word, one ``scan_insert`` per letter."""
    insertion, recording = [], []
    for step, value in enumerate(images, start=1):
        r = scan_insert(insertion, value)
        if r == len(recording):
            recording.append([])
        recording[r].append(step)
    return tuple(map(tuple, insertion)), tuple(map(tuple, recording))


class TestPermutation:
    def test_accepts_an_int_subclass(self):
        class Label(int):
            pass

        perm = Permutation((Label(2), Label(1), Label(3)))
        assert perm == Permutation((2, 1, 3))
        assert rsk(perm) == rsk((2, 1, 3)) and lis_length(perm) == 2

    def test_inverse(self):
        assert SIGMA.inverse() == Permutation((2, 1, 5, 3, 4))
        assert SIGMA.inverse().inverse() == SIGMA

    def test_parse_compact_and_commas(self):
        assert parse_permutation("21453") == SIGMA
        assert parse_permutation("2,1,4,5,3") == SIGMA
        assert parse_permutation("10,2,3,4,5,6,7,8,9,1").images[0] == 10

    def test_format(self):
        assert format_permutation(SIGMA) == "21453"
        assert repr(Permutation((2, 1))) == "Permutation([2, 1])"
        assert str(Permutation((2, 1))) == "21"
        long = Permutation(tuple([10] + list(range(2, 10)) + [1]))
        assert format_permutation(long) == "10,2,3,4,5,6,7,8,9,1"

    @given(permutations(max_n=30))
    def test_format_parse_round_trip(self, perm):
        text = format_permutation(perm)
        assert ("," in text) == (perm.n >= 10)  # digits glued up to n = 9, commas beyond
        assert parse_permutation(text) == perm

    def test_parse_ignores_whitespace_around_entries(self):
        assert parse_permutation(" 2 , 1,4 ,\t5,3 ") == SIGMA
        assert parse_permutation(" 2 1 45 3 ") == SIGMA  # glued digits: each digit is an entry
        assert parse_permutation("  ") == Permutation(())
        assert parse_permutation("2,\u20031") == parse_permutation("2\u20031") == Permutation((2, 1))


class TestRowInsert:
    def test_bump_into_single_row(self):
        grown, box = row_insert(Filling.from_rows([[2]]), 1)
        assert grown.rows == ((1,), (2,))
        assert box == (1, 0)

    def test_final_step_of_worked_example(self):
        grown, box = row_insert(Filling.from_rows([[1, 4, 5], [2]]), 3)
        assert grown.rows == ((1, 3, 5), (2, 4))
        assert box == (1, 1)

    def test_insert_into_empty(self):
        grown, box = row_insert(Filling.from_rows(()), 7)
        assert grown.rows == ((7,),)
        assert box == (0, 0)

    def test_append_at_row_end(self):
        grown, box = row_insert(Filling.from_rows([[1, 4], [2]]), 5)
        assert grown.rows == ((1, 4, 5), (2,))
        assert box == (0, 2)

    def test_bumped_entry_goes_after_an_equal_entry(self):
        # the 3 bumped out of row 0 meets a 3 in row 1; putting it first would stack 3 over 3
        grown, box = row_insert(Filling.from_rows([[1, 3], [3]]), 2)
        assert grown.rows == ((1, 2), (3, 3))
        assert box == (1, 1)

    def test_matches_scan_on_tableaux_with_repeated_entries(self):
        for n in range(1, 7):
            for shape in partitions_of(n):
                for tableau in enumerate_ssyt(shape, 4):
                    present = set(itertools.chain.from_iterable(tableau.rows))
                    for value in sorted(set(range(1, 6)) - present):
                        rows = [list(row) for row in tableau.rows]
                        r = scan_insert(rows, value)
                        grown, box = row_insert(tableau, value)
                        assert grown.rows == tuple(map(tuple, rows))
                        assert box == (r, len(rows[r]) - 1)
                        assert grown.is_semistandard()


def fold_row_insert(images):
    """The pair built step by step through the public, validating ``row_insert``."""
    insertion = Filling.from_rows(())
    recording = []
    for step, value in enumerate(images, start=1):
        insertion, (r, c) = row_insert(insertion, value)
        if r == len(recording):
            recording.append([])
        recording[r].append(step)
        assert c == len(recording[r]) - 1
    return RskPair(insertion, Filling.from_rows(recording))


def seeded_permutations(sizes, seed=0):
    rng = random.Random(seed)
    return [Permutation(tuple(rng.sample(range(1, n + 1), n))) for n in sizes]


class TestPlainListSteps:
    """``rsk`` and ``rsk_trace`` run on plain lists; check them against ``row_insert``."""

    def test_rsk_matches_row_insert_exhaustively(self):
        for n in range(8):
            for images in itertools.permutations(range(1, n + 1)):
                assert rsk(images) == fold_row_insert(images)

    def test_rsk_matches_row_insert_seeded(self):
        for perm in seeded_permutations((10, 100, 500, 2000)):
            assert rsk(perm) == fold_row_insert(perm.images)

    def test_trace_snapshots_equal_their_validated_rebuild(self):
        # snapshots are built without validation; rebuild each through Filling.from_rows
        perms = [Permutation(images) for n in range(7) for images in itertools.permutations(range(1, n + 1))]
        for perm in perms + seeded_permutations((10, 20, 40, 60)):
            for step, (insertion, recording) in enumerate(rsk_trace(perm)):
                for snapshot in (insertion, recording):
                    rebuilt = Filling.from_rows(snapshot.rows)
                    assert snapshot == rebuilt and hash(snapshot) == hash(rebuilt)
                    assert all(type(v) is int for row in snapshot.rows for v in row)
                assert recording.is_standard()
                # the insertion tableau holds the first `step` values: standard after relabelling
                values = sorted(perm.images[:step])
                rank = {v: i for i, v in enumerate(values, start=1)}
                assert Filling.from_rows([[rank[v] for v in row] for row in insertion.rows]).is_standard()
            assert insertion.is_standard()


class TestLinearScanReference:
    """``rsk`` and ``rsk_trace`` against an insertion that shares none of their code."""

    def test_every_permutation_up_to_seven(self):
        for n in range(8):
            for images in itertools.permutations(range(1, n + 1)):
                want = scan_insertion(images)
                pair = rsk(images)
                assert (pair.insertion.rows, pair.recording.rows) == want
                trace = rsk_trace(images)
                assert len(trace) == n + 1
                insertion, recording = trace[-1]
                assert (insertion.rows, recording.rows) == want

    def test_seeded(self):
        for perm in seeded_permutations((100, 2000, 5000), seed=2):
            pair = rsk(perm)
            assert (pair.insertion.rows, pair.recording.rows) == scan_insertion(perm.images)

    def test_trace_seeded(self):
        # a trace holds n + 1 snapshots, so it stops at the CLI's 1000-letter trace guard
        for perm in seeded_permutations((100, 1000), seed=2):
            insertion, recording = rsk_trace(perm)[-1]
            assert (insertion.rows, recording.rows) == scan_insertion(perm.images)


def filled_by_rows(parts):
    """The standard tableau of shape ``parts`` numbered along its rows."""
    ends = list(itertools.accumulate(parts))
    return [list(range(end - p + 1, end + 1)) for p, end in zip(parts, ends)]


def filled_by_columns(parts):
    """The standard tableau of shape ``parts`` numbered down its columns."""
    rows = [[] for _ in parts]
    k = 0
    for c in range(parts[0]):
        for r in range(len(parts)):
            if parts[r] > c:
                k += 1
                rows[r].append(k)
    return rows


class TestInverse:
    def test_single_rows_give_identity(self):
        row = Filling.from_rows([[1, 2, 3]])
        assert inverse_rsk(RskPair(row, row)) == Permutation((1, 2, 3))

    @given(permutations())
    def test_round_trip_random(self, perm):
        assert inverse_rsk(rsk(perm)) == perm

    def test_round_trip_seeded_large(self):
        for perm in seeded_permutations((100, 2000, 5000), seed=1):
            assert inverse_rsk(rsk(perm)) == perm

    @pytest.mark.parametrize("parts", [
        (12,), (1,) * 6, (7, 1, 1, 1), (2, 1, 1, 1, 1), (9, 1), (4, 3, 2, 1), tuple(range(12, 0, -1)),
    ])
    def test_round_trip_from_pairs_of_one_shape(self, parts):
        # each reverse bump starts its search at the column it left: straight up a column,
        # along one row, and up the diagonal steps of hooks and staircases
        fillings = [Filling.from_rows(filled_by_rows(parts)), Filling.from_rows(filled_by_columns(parts))]
        for insertion, recording in itertools.product(fillings, repeat=2):
            pair = RskPair(insertion, recording)
            assert rsk(inverse_rsk(pair)) == pair

    def test_round_trip_from_a_long_column(self):
        column = Filling.from_rows([[k] for k in range(1, 1201)])
        perm = inverse_rsk(RskPair(column, column))
        assert perm == Permutation(tuple(range(1200, 0, -1)))
        assert rsk(perm) == RskPair(column, column)


class TestLis:
    def test_worked_example(self):
        assert lis_length(SIGMA) == 3
        assert brute_force_lis(SIGMA.images) == 3

    def test_identity_and_reversal(self):
        assert lis_length(Permutation((1, 2, 3, 4, 5))) == 5
        assert lis_length(Permutation((5, 4, 3, 2, 1))) == 1

    def test_matches_brute_force_exhaustively(self):
        for n in range(7):
            for images in itertools.permutations(range(1, n + 1)):
                assert lis_length(Permutation(images)) == brute_force_lis(images)

    @settings(max_examples=50)
    @given(permutations())
    def test_first_row_length_law_random(self, perm):
        assert rsk(perm).shape.part(0) == lis_length(perm)
