#!/usr/bin/env python3
"""Exhaustively exercise the insertion bijection and its side identities.

For every permutation of each size up to the budget: invert the
correspondence and demand the original back, compare the first row
length with an independent patience-sorting count, and check that the
pair for the inverse permutation is the swapped pair. Per size, the
square-sum of the hook-length counts must equal n!.

Usage: python scripts/bijection_sweep.py [--max-n 7]
"""

import argparse
import itertools
import math
import sys
import time

from tableaux import (
    Permutation,
    count_standard_tableaux,
    inverse_rsk,
    lis_length,
    partitions_of,
    rsk,
)


def sweep(max_n: int) -> int:
    failures = 0
    for n in range(max_n + 1):
        started = time.perf_counter()
        shapes = set()
        for images in itertools.permutations(range(1, n + 1)):
            perm = Permutation(images)
            pair = rsk(perm)
            shapes.add(pair.shape)
            if inverse_rsk(pair) != perm:
                failures += 1
                print(f"ROUNDTRIP FAILURE at {perm}", file=sys.stderr)
            if pair.shape.part(0) != lis_length(perm):
                failures += 1
                print(f"FIRST-ROW/LIS FAILURE at {perm}", file=sys.stderr)
            swapped = rsk(perm.inverse())
            if (swapped.insertion, swapped.recording) != (pair.recording, pair.insertion):
                failures += 1
                print(f"PAIR-SWAP FAILURE at {perm}", file=sys.stderr)
        square_sum = sum(count_standard_tableaux(shape) ** 2 for shape in partitions_of(n))
        if square_sum != math.factorial(n):
            failures += 1
            print(f"SQUARE-SUM FAILURE at n={n}: {square_sum} != {n}!", file=sys.stderr)
        elapsed = time.perf_counter() - started
        print(
            f"n={n}: {math.factorial(n)} permutations, {len(shapes)} shapes hit, "
            f"sum f^2 = {square_sum}, {elapsed:.2f}s"
        )
    print("all checks passed" if failures == 0 else f"{failures} FAILURES")
    return 0 if failures == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=7)
    args = parser.parse_args()
    if args.max_n < 0:  # an empty sweep would report success having checked nothing
        parser.error(f"--max-n must be nonnegative, got {args.max_n}")
    return sweep(args.max_n)


if __name__ == "__main__":
    raise SystemExit(main())
