#!/usr/bin/env python3
"""Apply each mutant of the catalogue alone; every one of its killing tests must then fail.

A ``MUTANTS`` row is (name, file under ``src/tableaux/``, old text found there exactly once, new text,
killing pytest node ids); README's "Mutants" paragraph says more. The unmutated copy must pass them all,
and a run past ``LIMIT_S`` counts as a kill. Each mutant prints one JSON line; the first fault ends the
run with exit code 1 and one ``error:`` line.

Usage: python scripts/mutants.py   (takes no arguments)
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
LIMIT_S = 30  # seconds for one pytest run, the unmutated one included
Mutant = NamedTuple("Mutant", [("name", str), ("file", str), ("old", str), ("new", str), ("kills", tuple)])

IN_ORDER = "tests/test_partitions.py::TestPartitionsOf::test_matches_recursive_generator_in_order"
BY_ENUMERATION = "tests/test_partitions.py::TestCountStandard::test_matches_enumeration_up_to_ten"
BY_PER_BOX_PRODUCT = "tests/test_partitions.py::TestCountStandard::test_matches_per_box_product_up_to_twenty"
SSYT_BRUTE = "tests/test_fillings.py::TestEnumerateSsyt::test_matches_brute_force_small_shapes"
SYT_BRUTE = "tests/test_fillings.py::TestEnumerateSyt::test_matches_brute_force_up_to_seven"
PER_BOX = "tests/test_fillings.py::TestValidators::test_fixed_examples_match_per_box_reference"
EVERY_PERM = "tests/test_rsk.py::TestLinearScanReference::test_every_permutation_up_to_seven"
ROW_INSERT = "tests/test_rsk.py::TestRowInsert::"
INVERSE = "tests/test_rsk.py::TestInverse::"
TIER1_CHECK = "tests/test_scripts.py::test_each_check_agrees_at_its_tier1_budget"
PAIR_LOOP = "tests/test_polynomials.py::TestPairLoop::"

MUTANTS = (
    Mutant("partitions_of walks width n - 1", "partitions.py", "_walk((n,) if n else (), n))",
           "_walk((n,) if n else (), n - 1))", (IN_ORDER,)),
    Mutant("partitions_of yields list parts", "partitions.py", "Partition._trusted(parts) for parts",
           "Partition._trusted(list(parts)) for parts", (IN_ORDER,)),
    Mutant("hook-length count from (n - 1)!", "partitions.py", "divmod(factorial(n), prod(shape.hooks()))",
           "divmod(factorial(n - 1), prod(shape.hooks()))", (BY_PER_BOX_PRODUCT,)),
    Mutant("first-column hooks one too long", "partitions.py", "range(len(parts) - 1, -1, -1)",
           "range(len(parts), 0, -1)", (BY_ENUMERATION,)),
    Mutant("row bound dropped", "partitions.py", "if len(parts) > 12:", "if False:", (BY_PER_BOX_PRODUCT,)),
    Mutant("columns one too tall", "partitions.py", "heights += [r - floor]", "heights += [r + 1 - floor]",
           ("tests/test_fillings.py::TestEnumerateSyt::test_matches_frozen_search_through_ten_boxes",
            *(f"{TIER1_CHECK}[{name}]" for name in (
                "lr-rule-vs-expansion", "kostka-vs-enumeration", "product-route-vs-full-width", "square-4321-vs-rule")))),
    Mutant("search without column strictness", "fillings.py", "v = values[up[k]] + 1", "v = values[up[k]]",
           (SSYT_BRUTE, "tests/test_fillings.py::TestEnumerateLrFillings::test_matches_brute_force_up_to_degree_six")),
    Mutant("search over no boxes yields nothing", "fillings.py", "if not n:\n        yield values\n",
           "if not n:\n", (SSYT_BRUTE,)),
    Mutant("reading-order rows cut right to left", "fillings.py", "else slice(start + 1, end + 1)",
           "else slice(end, start, -1)", (SSYT_BRUTE, SYT_BRUTE)),
    Mutant("SSYT caps one too high", "fillings.py", "range(bound + 1, bound + 1 + len(outer))",
           "range(bound + 2, bound + 2 + len(outer))", (SSYT_BRUTE,)),
    Mutant("SYT budget of 2 per value", "fillings.py", "[1] * (n + 1)", "[2] * (n + 1)", (SYT_BRUTE,)),
    Mutant("24-box guard put back", "fillings.py", "    n, parts = shape.size, shape.parts\n",
           '    n, parts = shape.size, shape.parts\n    if n > 24:\n        raise ValueError("more than 24 boxes")\n',
           ("tests/test_fillings.py::TestEnumerateSyt::test_long_row_does_not_recurse",)),
    Mutant("a row out of order reads as semistandard", "fillings.py",
           "row[1:])):\n                return False", "row[1:])):\n                return True", (PER_BOX,)),
    Mutant("column check runs one row past the end", "fillings.py", "_shifts(self.shape.inner, len(rows))",
           "_shifts(self.shape.inner, len(rows) + 1)", (PER_BOX,)),
    Mutant("columns only weakly increasing", "fillings.py", "map(lt, rows[r - 1]", "map(le, rows[r - 1]",
           (PER_BOX,)),
    Mutant("standard without 1..n once each", "fillings.py", "return _is_one_to_n(chain.from_iterable(self.rows), "
           "self.shape.size) and self.is_semistandard()", "return self.is_semistandard()", (PER_BOX,)),
    Mutant("LR witnesses in reverse order", "littlewood_richardson.py",
           "else _cut(SkewShape._trusted(outer, inner), leaves, reverse=True)",
           "else iter([*_cut(SkewShape._trusted(outer, inner), leaves, reverse=True)][::-1])",
           ("tests/test_littlewood_richardson.py::TestEnumeration::test_witnesses_ordered_by_reading_word",)),
    Mutant("recording the value in place of the step", "rsk.py", "recording[r].append(step)",
           "recording[r].append(value)", (EVERY_PERM, f"{TIER1_CHECK}[insertion-vs-row-streams]")),
    Mutant("a box at a row's end recorded one row down", "rsk.py", "row.append(v)\n            return r\n",
           "row.append(v)\n            return r + 1\n", (EVERY_PERM,)),
    Mutant("steps without the empty first state", "rsk.py", "    yield insertion, recording\n    for step",
           "    for step", (EVERY_PERM,)),
    Mutant("rsk and trace fillings with their insertion rows reversed", "rsk.py", "tuple(map(tuple, insertion))",
           "tuple(tuple(row[::-1]) for row in insertion)",
           ("tests/test_rsk.py::TestPlainListSteps::test_trusted_outputs_equal_their_validated_rebuild", EVERY_PERM)),
    Mutant("row insertion bumps with bisect_left", "rsk.py", "j = bisect_right(row, v)", "j = bisect_left(row, v)",
           (ROW_INSERT + "test_bumped_entry_goes_after_an_equal_entry",
            ROW_INSERT + "test_matches_scan_on_tableaux_with_repeated_entries")),
    Mutant("reverse bump searches from j + 2", "rsk.py", "bisect_left(row, v, j) - 1", "bisect_left(row, v, j + 2) - 1",
           (f"{TIER1_CHECK}[insertion-bijection]", f"{TIER1_CHECK}[cli-rsk-round-trip]",
            INVERSE + "test_round_trip_seeded_large", INVERSE + "test_round_trip_from_a_long_column")),
    Mutant("--invert prints its permutation reversed", "cli.py", "perm = inverse_rsk(args.pair)\n",
           "perm = inverse_rsk(args.pair)\n        perm = type(perm)(perm.images[::-1])\n",
           (f"{TIER1_CHECK}[cli-rsk-round-trip]", "tests/test_cli.py::TestRsk::test_output_is_pinned")),
    Mutant("expansion keeps the zeros of its dominant exponents", "schur.py", "tuple(filter(None, exps)): coeff",
           "exps: coeff",
           (f"{TIER1_CHECK}[power-sum-vs-hooks]", "tests/test_schur.py::test_expand_agrees_with_sorting_reference")),
    Mutant("conjugate-branch expansion sorted lex-ascending", "schur.py",
           "key=lambda item: item[0].parts, reverse=True", "key=lambda item: item[0].parts, reverse=False",
           ("tests/test_cli.py::TestExpand::test_tall_columns_are_quick",
            "tests/test_cli.py::TestExpand::test_json_matches_full_width_expansion_up_to_six",
            f"{TIER1_CHECK}[product-route-vs-full-width]",
            "tests/test_acceptance.py::test_criterion_5_rule_equals_expansion_up_to_six")),
    Mutant("orbit product lead without the longer factor's tail", "polynomials.py",
           "lead = tuple(map(add, a, b)) + a[len(b):]", "lead = tuple(map(add, a, b))",
           ("tests/test_polynomials.py::TestOrbitProduct::test_every_schur_pair_through_degree_eight",
            f"{TIER1_CHECK}[product-route-vs-full-width]")),
    Mutant("+ overwrites in place of adding", "polynomials.py", "terms[key] = get(key, 0) + coeff",
           "terms[key] = coeff", (PAIR_LOOP + "test_matches_naive_reference",)),
    Mutant("pair loop overwrites in place of adding", "polynomials.py", "terms[key] = get(key, 0) + c1 * c2",
           "terms[key] = c1 * c2", (PAIR_LOOP + "test_cancellation_to_zero",)),
    Mutant("== compares term counts", "polynomials.py", "self._filled() == other._filled()",
           "len(self._filled()) == len(other._filled())", (PAIR_LOOP + "test_cancellation_to_zero",)),
)


def failing(tree: Path, tests: list[str]) -> list[str]:
    """Those of ``tests`` that do not pass in ``tree``, run in one pytest process; all if it outlasts ``LIMIT_S``."""
    # no bytecode is written, so an edit of the same length in the same second cannot run a stale .pyc;
    # the tests need no pytest plugin, so none installed is loaded
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
    try:
        out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *tests],
                             cwd=tree, env=env, capture_output=True, text=True, timeout=LIMIT_S).stdout
    except subprocess.TimeoutExpired:
        return tests
    passed = set(re.findall(r"^PASSED (\S+)", out, re.M))
    return [test for test in tests if test not in passed]


def main(argv: list[str]) -> int:
    if argv:
        print(f"usage: mutants.py\nerror: takes no arguments, got {argv}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
        for mutant in MUTANTS:
            found = (tree / "src" / "tableaux" / mutant.file).read_text(encoding="utf-8").count(mutant.old)
            if found != 1:
                print(f"error: {mutant.name}: old text found {found} times in {mutant.file}", file=sys.stderr)
                return 1
        tests = list(dict.fromkeys(test for mutant in MUTANTS for test in mutant.kills))
        if failed := failing(tree, tests):
            print(f"error: the unmutated tree fails {', '.join(failed)}", file=sys.stderr)
            return 1
        for mutant in MUTANTS:
            path = tree / "src" / "tableaux" / mutant.file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            started = time.perf_counter()
            survivors = sorted(set(mutant.kills).difference(failing(tree, list(mutant.kills))))
            path.write_text(text, encoding="utf-8")  # an exception ends the run and removes the copy
            print(json.dumps({"name": mutant.name, "killed": not survivors,
                              "seconds": round(time.perf_counter() - started, 3)}), flush=True)
            if survivors:
                print(f"error: {mutant.name} survives {', '.join(survivors)}", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
