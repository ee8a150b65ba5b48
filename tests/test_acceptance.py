"""Acceptance gate: the eight headline criteria, each exact, each timed.

Every test prints one ``ACCEPTANCE k PASS`` line (visible with ``pytest -s``
or in captured output); a failure raises before the line is printed.
"""

import itertools
import math
import time

from tableaux import (
    Filling,
    Partition,
    Polynomial,
    Permutation,
    bender_knuth,
    count_standard_tableaux,
    enumerate_lr_fillings,
    enumerate_ssyt,
    enumerate_syt,
    lis_length,
    lr_coefficient,
    partitions_of,
    rsk,
    rsk_trace,
    schur_polynomial,
)
from tableaux.cli import main


def report(number, message):
    print(f"ACCEPTANCE {number} PASS: {message}")


def entry(crosscheck, name):
    """The entry ``name`` of the cross-check table, ``CHECKS`` of ``scripts/crosscheck.py``."""
    return next(check for check in crosscheck.CHECKS if check.name == name)


def test_criterion_1_count_of_4_2_1(capsys):
    start = time.perf_counter()
    assert main(["count-syt", "[4,2,1]"]) == 0
    assert capsys.readouterr().out == "35\n"
    tableaux = list(enumerate_syt(Partition((4, 2, 1))))
    assert len(tableaux) == 35
    assert all(f.is_standard() for f in tableaux)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, f"f(4,2,1) = 35 by formula, CLI, and enumeration ({elapsed:.3f}s)")


def test_criterion_2_hook_multiset(capsys):
    hooks = sorted(Partition((4, 2, 1)).hooks())
    assert hooks == [1, 1, 1, 2, 3, 4, 6]
    with capsys.disabled():
        report(2, "hook multiset of (4,2,1) is {6,4,3,2,1,1,1}")


def test_criterion_3_eight_tableaux_and_schur(capsys):
    start = time.perf_counter()
    listed = [
        ((1, 1), (2,)),
        ((1, 2), (2,)),
        ((1, 3), (2,)),
        ((1, 2), (3,)),
        ((1, 1), (3,)),
        ((1, 3), (3,)),
        ((2, 2), (3,)),
        ((2, 3), (3,)),
    ]
    enumerated = [f.rows for f in enumerate_ssyt(Partition((2, 1)), 3)]
    assert len(enumerated) == 8
    assert set(enumerated) == set(listed)

    # eight monomials; the two equal ones combine to coefficient 2
    expected = Polynomial(
        3,
        {
            (2, 1, 0): 1,
            (1, 2, 0): 1,
            (1, 1, 1): 2,
            (2, 0, 1): 1,
            (1, 0, 2): 1,
            (0, 2, 1): 1,
            (0, 1, 2): 1,
        },
    )
    assert schur_polynomial(Partition((2, 1)), 3) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        report(3, f"the 8 tableaux and the 7-term Schur polynomial match ({elapsed:.3f}s)")


def test_criterion_4_coefficient_two_with_witnesses(capsys):
    lam = Partition((2, 1))
    nu = Partition((3, 2, 1))
    assert lr_coefficient(lam, lam, nu) == 2
    witnesses = set(enumerate_lr_fillings(nu, lam, lam))
    expected = {
        Filling.from_rows([[1], [1], [2]], inner=[2, 1]),
        Filling.from_rows([[1], [2], [1]], inner=[2, 1]),
    }
    assert witnesses == expected
    with capsys.disabled():
        report(4, "coefficient for ((2,1),(2,1),(3,2,1)) is 2 with exactly the expected witnesses")


def test_criterion_5_rule_equals_expansion_up_to_six(capsys, crosscheck):
    # the rule equals _product_expansion at every (λ, μ, ν), and that equals the full-width expansion
    start = time.perf_counter()
    entry(crosscheck, "lr-rule-vs-expansion").sweep(6)
    pairs = entry(crosscheck, "product-route-vs-full-width").sweep(6)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        report(5, f"rule = expansion on all {pairs} pairs with |lambda|+|mu| <= 6 ({elapsed:.2f}s)")


def test_criterion_6_insertion_trace(capsys):
    steps = [(t.rows, u.rows) for t, u in rsk_trace(Permutation((2, 1, 4, 5, 3)))]
    assert steps == [
        ((), ()),
        (((2,),), ((1,),)),
        (((1,), (2,)), ((1,), (2,))),
        (((1, 4), (2,)), ((1, 3), (2,))),
        (((1, 4, 5), (2,)), ((1, 3, 4), (2,))),
        (((1, 3, 5), (2, 4)), ((1, 3, 4), (2, 5))),
    ]
    with capsys.disabled():
        report(6, "all six snapshots of the 21453 insertion reproduced exactly")


def test_criterion_7_bijection_property_suite(capsys, crosscheck):
    start = time.perf_counter()

    # the round trip and the pair swap, on every permutation of n <= 6
    entry(crosscheck, "insertion-bijection").sweep(6)

    for n in range(8):
        for images in itertools.permutations(range(1, n + 1)):
            perm = Permutation(images)
            assert rsk(perm).shape.part(0) == lis_length(perm)

    for n in range(9):
        total = sum(count_standard_tableaux(shape) ** 2 for shape in partitions_of(n))
        assert total == math.factorial(n)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        report(7, f"roundtrip and pair swap n<=6, first-row law n<=7, sum f^2 = n! n<=8 ({elapsed:.2f}s)")


def test_criterion_8_involution_and_symmetry(capsys):
    start = time.perf_counter()
    checked = 0
    for n in range(7):
        for shape in partitions_of(n):
            for bound in range(1, 5):
                for filling in enumerate_ssyt(shape, bound):
                    weight = filling.weight(bound)
                    for i in range(1, bound):
                        image = bender_knuth(filling, i)
                        assert image.is_semistandard()
                        assert bender_knuth(image, i) == filling
                        swapped = list(weight)
                        swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
                        assert image.weight(bound) == tuple(swapped)
                        checked += 1
                assert schur_polynomial(shape, bound).is_symmetric(), (shape, bound)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        report(8, f"involution and weight swap on {checked} cases; Schur symmetry follows ({elapsed:.2f}s)")
