#!/usr/bin/env python3
"""Run every two-route cross-check at its fixed budget.

``CHECKS`` is the table. Each entry names a check, a generator that works
out each case by two independent routes and yields ``(case, agree)``, two
budgets the generator is called with, and a time limit in seconds. A
budget is an upper limit: a check sweeps every size up to it. The checks
run in table order in one process at ``budget``, and each prints one
JSON line: its name, budget, case count and wall time. The first
disagreement, or a check that works out no case, ends the run with exit
code 1 and one ``error:`` line on stderr naming the check and the case
or budget. A check still running past its
limit ends the run with exit code 1 and every thread's traceback on
stderr.

Each entry is also a tier-1 test, run at ``tier1``, a budget below
``budget`` (``tests/test_scripts.py``). A route pair is written here
once, and no tier-1 test repeats it.

Usage: PYTHONPATH=src python scripts/crosscheck.py   (takes no arguments)
"""

import contextlib
import faulthandler
import io
import itertools
import json
import random
import sys
import time
from bisect import bisect_left
from collections import Counter
from typing import Callable, Iterator, NamedTuple

import tableaux.cli
from tableaux import (
    Partition,
    Permutation,
    Polynomial,
    enumerate_ssyt,
    inverse_rsk,
    lr_coefficient,
    partitions_of,
    rsk,
    schur_expand,
    schur_polynomial,
)
from tableaux.schur import _product_expansion

Cases = Iterator[tuple[tuple, bool]]


class CheckFailed(Exception):
    """The two routes of a check differ at one case, or its sweep works out no case."""


class Check(NamedTuple):
    name: str
    cases: Callable[[int], Cases]
    tier1: int
    budget: int
    limit_s: int

    def sweep(self, budget: int) -> int:
        """The number of cases worked out at ``budget``; :class:`CheckFailed` at the first that
        fails, or if there is none."""
        cases = 0
        for case, agree in self.cases(budget):
            if not agree:
                raise CheckFailed(f"{self.name} disagrees at {', '.join(map(str, case))}")
            cases += 1
        if not cases:
            raise CheckFailed(f"{self.name} works out no case at {budget}")
        return cases


def pairs(degree: int) -> Iterator[tuple[Partition, Partition]]:
    """Every (λ, μ) with |λ| + |μ| = degree: 185 pairs at degree 8."""
    for a in range(degree + 1):
        for lam in partitions_of(a):
            for mu in partitions_of(degree - a):
                yield lam, mu


def lr_rule_vs_expansion(max_degree: int) -> Cases:
    """c^ν_λμ by lattice fillings against the expansion of s_λ·s_μ, zeros included, for every ν."""
    for degree in range(max_degree + 1):
        for lam, mu in pairs(degree):
            expansion = _product_expansion(lam, mu)
            for nu in partitions_of(degree):
                yield (lam, mu, nu), lr_coefficient(lam, mu, nu) == expansion.get(nu, 0)


def kostka_vs_enumeration(max_boxes: int) -> Cases:
    """s_λ from Kostka numbers against the weights of its tableaux, for |λ| <= max_boxes in 0..max_boxes variables."""
    for boxes in range(max_boxes + 1):
        for lam in partitions_of(boxes):
            for width in range(max_boxes + 1):
                weights = Counter(f.weight(width) for f in enumerate_ssyt(lam, width))
                yield (lam, width), schur_polynomial(lam, width) == Polynomial(width, weights)


def product_route_vs_full_width(max_degree: int) -> Cases:
    """The expansion that ``expand`` forms against the product in |λ| + |μ| variables, in the same order."""
    for degree in range(max_degree + 1):
        for lam, mu in pairs(degree):
            full = schur_polynomial(lam, degree) * schur_polynomial(mu, degree)
            yield (lam, mu), list(_product_expansion(lam, mu).items()) == list(schur_expand(full).items())


# staircase size k -> (how many ν have c^ν_δδ != 0, Σc) for δ = (k, k - 1, ..., 1); each pair
# satisfies Σ c·f^ν = C(2n, n)·(f^δ)² with n = |δ|
SQUARES = {3: (34, 62), 4: (206, 930)}


def square_vs_rule(k: int) -> Cases:
    """s_δ² for the staircase δ = (k, ..., 1), its support pinned, against the rule at every ν ⊢ 2|δ|, zeros included."""
    lam = Partition(tuple(range(k, 0, -1)))
    expansion = _product_expansion(lam, lam)
    support, total = SQUARES[k]
    yield (f"{support} ν", f"Σc = {total}"), len(expansion) == support and sum(expansion.values()) == total
    for nu in partitions_of(2 * lam.size):
        yield (lam, lam, nu), lr_coefficient(lam, lam, nu) == expansion.get(nu, 0)


def power_sum_vs_hooks(max_k: int) -> Cases:
    """x1^k + ... + xw^k in the Schur basis for k <= max_k, w <= 8: the hooks (k - j, 1^j) with sign (-1)^j.

    This is Murnaghan–Nakayama, with j < min(k, w). Only w terms, but each
    hook's Kostka table spans the partitions of k.
    """
    for k in range(1, max_k + 1):
        for width in range(1, 9):
            p = Polynomial(width, {tuple(k * (i == j) for i in range(width)): 1 for j in range(width)})
            hooks = {Partition((k - j,) + (1,) * j): (-1) ** j for j in range(min(k, width))}
            yield (k, width), schur_expand(p) == hooks


def insertion_bijection(max_n: int) -> Cases:
    """Per permutation: inverse_rsk undoes rsk, and the inverse swaps the pair."""
    for n in range(max_n + 1):
        for images in itertools.permutations(range(1, n + 1)):
            perm = Permutation(images)
            pair, swapped = rsk(perm), rsk(perm.inverse())
            yield (list(images),), (inverse_rsk(pair) == perm
                                    and (swapped.insertion, swapped.recording) == (pair.recording, pair.insertion))


def _row_streams(images: tuple[int, ...]) -> tuple[list[list[int]], list[list[int]]]:
    """Schensted's pair built one row at a time, not one letter at a time.

    Row 0 is a patience pass over the word; every entry it bumps, tagged
    with the step that bumped it, forms the stream that row 1 takes in
    the same way, and so on. A row grows at the steps its recording row
    lists. (ROADMAP item 6 measured this route slower than letter-by-letter
    insertion; it is kept here only as a reference.)
    """
    insertion, recording = [], []
    stream = list(enumerate(images, start=1))
    while stream:
        row, steps, bumped = [], [], []
        for step, v in stream:
            j = bisect_left(row, v)
            if j == len(row):
                row.append(v)
                steps.append(step)
            else:
                bumped.append((step, row[j]))
                row[j] = v
        insertion.append(row)
        recording.append(steps)
        stream = bumped
    return insertion, recording


def insertion_vs_row_streams(n: int) -> Cases:
    """One permutation of n (seed 0): ``rsk`` against the row-by-row pair.

    ``cli-rsk-round-trip`` sends the same permutation back through ``rsk --invert``.
    """
    perm = Permutation(tuple(random.Random(0).sample(range(1, n + 1), n)))
    pair = rsk(perm)
    insertion, recording = _row_streams(perm.images)
    yield ("P and Q", f"seed 0, n = {n}"), (pair.insertion.rows, pair.recording.rows) == (
        tuple(map(tuple, insertion)), tuple(map(tuple, recording)))


def _stdout(*argv: str) -> str:
    """What one in-process ``tableaux`` command prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        tableaux.cli.main(list(argv))
    return out.getvalue()


def cli_rsk_round_trip(n: int) -> Cases:
    """One permutation of n (seed 0) through ``tableaux rsk``, then back through ``rsk --invert``.

    Both the text and the JSON form are read back, each by its own parse.
    """
    images = random.Random(0).sample(range(1, n + 1), n)
    perm = ",".join(map(str, images))
    # text rows print as "1 3 5" lines under "T:" and "U:"; --invert reads "1,3,5/2,4"
    blocks = _stdout("rsk", perm).rstrip("\n").removeprefix("T:\n").partition("\nU:\n")[::2]
    back = _stdout("rsk", "--invert", *(b.replace(" ", ",").replace("\n", "/") for b in blocks))
    yield ("text", f"seed 0, n = {n}"), back == perm + "\n"
    pair = json.loads(_stdout("rsk", perm, "--json"))["result"]
    rows = ["/".join(",".join(map(str, row)) for row in pair[side]["rows"])
            for side in ("insertion", "recording")]
    back = json.loads(_stdout("rsk", "--invert", *rows, "--json"))["result"]
    yield ("JSON", f"seed 0, n = {n}"), back == images


CHECKS = (
    Check("lr-rule-vs-expansion", lr_rule_vs_expansion, 7, 12, 45),
    Check("kostka-vs-enumeration", kostka_vs_enumeration, 7, 8, 120),
    Check("product-route-vs-full-width", product_route_vs_full_width, 7, 8, 10),
    Check("square-4321-vs-rule", square_vs_rule, 3, 4, 30),
    Check("power-sum-vs-hooks", power_sum_vs_hooks, 20, 30, 60),
    Check("insertion-bijection", insertion_bijection, 6, 7, 30),
    Check("insertion-vs-row-streams", insertion_vs_row_streams, 1_000, 20_000, 30),
    Check("cli-rsk-round-trip", cli_rsk_round_trip, 1_000, 20_000, 40),
)


def main(argv: list[str]) -> int:
    if argv:
        print(f"usage: crosscheck.py\nerror: takes no arguments, got {argv}", file=sys.stderr)
        return 2
    for check in CHECKS:
        started = time.perf_counter()
        faulthandler.dump_traceback_later(check.limit_s, exit=True)
        try:
            cases = check.sweep(check.budget)
        except CheckFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            faulthandler.cancel_dump_traceback_later()
        seconds = round(time.perf_counter() - started, 3)
        print(json.dumps({"name": check.name, "budget": check.budget, "cases": cases, "seconds": seconds}),
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
