#!/usr/bin/env python3
"""Run every two-route cross-check at its fixed budget.

``CHECKS`` is the table. Each entry names a check, a generator that works
out each case by two independent routes and yields ``(case, agree)``, the
budget the generator is called with, and a time limit in seconds. The
checks run in table order in one process, and each prints one JSON line:
its name, budget, case count and wall time. The first disagreement ends
the run with exit code 1 and one ``error:`` line on stderr naming the
check and the case. A check still running past its limit ends the run
with exit code 1 and every thread's traceback on stderr.

An entry holds a budget that the tier-1 tests do not reach. A check that
a tier-1 test already makes at the same or a larger budget belongs there
alone, not here as well.

Usage: PYTHONPATH=src python scripts/crosscheck.py   (takes no arguments)
"""

import faulthandler
import itertools
import json
import math
import sys
import time
from collections import Counter
from typing import Any, Callable, Iterator, NamedTuple

from tableaux import (
    Partition,
    Permutation,
    Polynomial,
    count_standard_tableaux,
    enumerate_ssyt,
    inverse_rsk,
    lis_length,
    lr_coefficient,
    partitions_of,
    rsk,
    schur_expand,
    schur_polynomial,
)
from tableaux.schur import _product_expansion

Cases = Iterator[tuple[tuple, bool]]


class Check(NamedTuple):
    name: str
    cases: Callable[[Any], Cases]
    budget: Any
    limit_s: int


def _pairs(degree: int) -> Iterator[tuple[Partition, Partition]]:
    """Every (λ, μ) with |λ| + |μ| = degree: 185 pairs at degree 8."""
    for a in range(degree + 1):
        for lam in partitions_of(a):
            for mu in partitions_of(degree - a):
                yield lam, mu


def lr_rule_vs_expansion(max_degree: int) -> Cases:
    """c^ν_λμ by lattice fillings against the expansion of s_λ·s_μ, zeros included, for every ν."""
    for degree in range(max_degree + 1):
        for lam, mu in _pairs(degree):
            expansion = _product_expansion(lam, mu)
            for nu in partitions_of(degree):
                yield (lam, mu, nu), lr_coefficient(lam, mu, nu) == expansion.get(nu, 0)


def kostka_vs_enumeration(boxes: int) -> Cases:
    """s_λ from Kostka numbers against the weights of its tableaux, for λ ⊢ boxes in 0..boxes variables."""
    for lam in partitions_of(boxes):
        for width in range(boxes + 1):
            weights = Counter(f.weight(width) for f in enumerate_ssyt(lam, width))
            yield (lam, width), schur_polynomial(lam, width) == Polynomial(width, weights)


def product_route_vs_full_width(degree: int) -> Cases:
    """The expansion that ``expand`` forms against the product in ``degree`` variables."""
    for lam, mu in _pairs(degree):
        full = schur_polynomial(lam, degree) * schur_polynomial(mu, degree)
        yield (lam, mu), _product_expansion(lam, mu) == schur_expand(full)


def square_vs_rule(parts: list[int]) -> Cases:
    """The 20-box s_[4,3,2,1]² in 8 variables: 206 ν with Σc = 930, each c equal to the rule."""
    lam = Partition(tuple(parts))
    expansion = _product_expansion(lam, lam)
    yield ("206 ν", "Σc = 930"), len(expansion) == 206 and sum(expansion.values()) == 930
    for nu, c in expansion.items():
        yield (lam, lam, nu), lr_coefficient(lam, lam, nu) == c


def power_sum_vs_hooks(k: int) -> Cases:
    """x1^k + ... + x8^k in the Schur basis: the hooks (k - j, 1^j) with sign (-1)^j (Murnaghan–Nakayama)."""
    p = Polynomial(8, {tuple(k * (i == j) for i in range(8)): 1 for j in range(8)})
    yield (k,), schur_expand(p) == {Partition((k - j,) + (1,) * j): (-1) ** j for j in range(8)}


def insertion_bijection(max_n: int) -> Cases:
    """Per permutation: inverse_rsk undoes rsk, the first row is as long as the patience count,
    and the inverse swaps the pair. Per n: Σ (f^λ)² = n!."""
    for n in range(max_n + 1):
        for images in itertools.permutations(range(1, n + 1)):
            perm = Permutation(images)
            pair, swapped = rsk(perm), rsk(perm.inverse())
            yield (list(images),), (inverse_rsk(pair) == perm
                                    and pair.shape.part(0) == lis_length(perm)
                                    and (swapped.insertion, swapped.recording) == (pair.recording, pair.insertion))
        square_sum = sum(count_standard_tableaux(lam) ** 2 for lam in partitions_of(n))
        yield (f"Σ (f^λ)² at n = {n}",), square_sum == math.factorial(n)


CHECKS = (
    Check("lr-rule-vs-expansion", lr_rule_vs_expansion, 12, 300),
    Check("kostka-vs-enumeration", kostka_vs_enumeration, 8, 300),
    Check("product-route-vs-full-width", product_route_vs_full_width, 8, 300),
    Check("square-4321-vs-rule", square_vs_rule, [4, 3, 2, 1], 60),
    Check("power-sum-vs-hooks", power_sum_vs_hooks, 30, 20),
    Check("insertion-bijection", insertion_bijection, 7, 300),
)


def main(argv: list[str]) -> int:
    if argv:
        print(f"usage: crosscheck.py\nerror: takes no arguments, got {argv}", file=sys.stderr)
        return 2
    for check in CHECKS:
        started = time.perf_counter()
        cases = 0
        faulthandler.dump_traceback_later(check.limit_s, exit=True)
        try:
            for case, agree in check.cases(check.budget):
                cases += 1
                if not agree:
                    print(f"error: {check.name} disagrees at {', '.join(map(str, case))}", file=sys.stderr)
                    return 1
        finally:
            faulthandler.cancel_dump_traceback_later()
        seconds = round(time.perf_counter() - started, 3)
        print(json.dumps({"name": check.name, "budget": check.budget, "cases": cases, "seconds": seconds}),
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
