#!/usr/bin/env python3
"""Sweep the combinatorial rule against the Schur-basis expansion.

For every pair of partitions up to a total-size budget, the product of
their Schur polynomials is expanded two independent ways: counting
lattice fillings of each skew shape, and peeling leading terms off the
product as ``expand`` forms it, in the fewest variables that hold every
coefficient. The sweep demands exact agreement on every coefficient,
including the zeros, reports each disagreement and then exits nonzero.

Usage: python scripts/lr_oracle_sweep.py [--max-total 6] [-v]
"""

import argparse
import sys
import time

from tableaux import lr_coefficient, partitions_of
from tableaux.schur import _product_expansion


def sweep(max_total: int, verbose: bool) -> int:
    mismatches = 0
    grand_pairs = 0
    for total in range(max_total + 1):
        started = time.perf_counter()
        pairs = nonzero = widest = 0
        for a in range(total + 1):
            for lam in partitions_of(a):
                for mu in partitions_of(total - a):
                    expansion = _product_expansion(lam, mu)
                    widest = max(widest, min(lam.nrows + mu.nrows, lam.part(0) + mu.part(0)))
                    pairs += 1
                    for nu in partitions_of(total):
                        by_rule = lr_coefficient(lam, mu, nu)
                        by_expansion = expansion.get(nu, 0)
                        if by_rule != by_expansion:
                            mismatches += 1
                            print(
                                f"MISMATCH lambda={lam} mu={mu} nu={nu}: "
                                f"rule={by_rule} expansion={by_expansion}",
                                file=sys.stderr,
                            )
                        elif by_rule and verbose:
                            print(f"  {lam} * {mu} -> {nu}: {by_rule}")
                        nonzero += bool(by_rule)
        elapsed = time.perf_counter() - started
        print(
            f"degree {total}: {pairs} pairs, {nonzero} nonzero coefficients, "
            f"max width {widest}, {elapsed:.2f}s"
        )
        grand_pairs += pairs
    verdict = "all coefficients agree" if mismatches == 0 else f"{mismatches} MISMATCHES"
    print(f"checked {grand_pairs} pairs up to total size {max_total}: {verdict}")
    return 0 if mismatches == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-total", type=int, default=6)
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args()
    if args.max_total < 0:  # an empty sweep would report success having checked nothing
        parser.error(f"--max-total must be nonnegative, got {args.max_total}")
    return sweep(args.max_total, args.verbose)


if __name__ == "__main__":
    raise SystemExit(main())
