import argparse
import ast
import contextlib
import hashlib
import io
import json
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tableaux.cli
import tableaux.schur
from tableaux import (
    Filling,
    Partition,
    SkewShape,
    bender_knuth,
    format_partition,
    partitions_of,
    rsk,
    schur_expand,
    schur_polynomial,
)
from tableaux.cli import _parse_rows, build_parser, main

ROOT = Path(__file__).resolve().parents[1]


def outcome(argv):
    """Exit code, stdout and stderr of one in-process call, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _id(argv):
    """The argv as one line, each argument of over 40 characters cut to its ends."""
    return " ".join(arg if len(arg) <= 40 else f"{arg[:10]}...{arg[-10:]}" for arg in argv)


def _line(n, sep=" "):
    return sep.join(map(str, range(1, n + 1)))


def _identity_trace(n):
    """``rsk --trace`` of the identity of 1..n: step k holds the one row 1..k in T and in U."""
    return "\n".join(f"step {k}:\nT:\n{_line(k) or '(empty)'}\nU:\n{_line(k) or '(empty)'}\n" for k in range(n + 1))


SCHUR_21_IN_THREE_VARS = (
    "1 * x1^2 x2 + 1 * x1^2 x3 + 1 * x1 x2^2 + 2 * x1 x2 x3"
    " + 1 * x1 x3^2 + 1 * x2^2 x3 + 1 * x2 x3^2\n"
)
SSYT_21_IN_THREE_VARS = "1 1\n2\n\n1 1\n3\n\n1 2\n2\n\n1 2\n3\n\n1 3\n2\n\n1 3\n3\n\n2 2\n3\n\n2 3\n3\n"
COUNT_SYT_21_JSON = '{"command": "count-syt", "inputs": {"shape": [2, 1]}, "result": 2}\n'
WORKED_PAIR = "T:\n1 3 5\n2 4\nU:\n1 3 4\n2 5\n"
COLUMN_1200 = "[" + ",".join(["1"] * 1200) + "]"
ROW_1001, ROW_5000 = _line(1001, ","), _line(5000, ",")

# Each argv that answers: its exact stdout, with exit code 0 and nothing on stderr.
ANSWERS = {
    ("count-syt", "[4,2,1]"): "35\n",
    ("count-syt", "[]"): "1\n",
    ("count-syt", "[2,2]"): "2\n",
    ("count-syt", "[4,2,1]", "--json"): '{"command": "count-syt", "inputs": {"shape": [4, 2, 1]}, "result": 35}\n',
    # --json before or after the subcommand
    ("count-syt", "[2,1]", "--json"): COUNT_SYT_21_JSON,
    ("--json", "count-syt", "[2,1]"): COUNT_SYT_21_JSON,
    ("count-syt", "[102]", "--max-boxes", "102"): "1\n",
    ("count-syt", "[]", "--max-boxes", "0"): "1\n",
    ("list-syt", "[2,2]"): "1 2\n3 4\n\n1 3\n2 4\n",
    ("list-syt", "[2,2]", "--json"): (
        '{"command": "list-syt", "inputs": {"shape": [2, 2]}, '
        '"result": [{"rows": [[1, 2], [3, 4]]}, {"rows": [[1, 3], [2, 4]]}]}\n'
    ),
    ("list-syt", "[21]", "--max-boxes", "21"): _line(21) + "\n",
    # long rows and a long column, printed without recursion
    ("list-syt", "[1000]", "--max-boxes", "1000"): _line(1000) + "\n",
    ("list-syt", COLUMN_1200, "--max-boxes", "1200"): _line(1200, "\n") + "\n",
    ("list-ssyt", "[1200]", "1", "--max-boxes", "1200"): " ".join(["1"] * 1200) + "\n",
    ("list-ssyt", "[2,1]", "3"): SSYT_21_IN_THREE_VARS,
    ("list-ssyt", "[1,1,1,1]", "3"): "\n",
    # (2,2)/(1) with entries <= 2: the box over the column forces a 1 above a 2
    ("list-ssyt", "[2,2]", "2", "--inner", "[1]"): ". 1\n1 2\n\n. 1\n2 2\n",
    ("list-ssyt", "[3,2,1]", "2", "--inner", "[2,1]"): (
        ". . 1\n. 1\n1\n\n. . 1\n. 1\n2\n\n. . 1\n. 2\n1\n\n. . 1\n. 2\n2\n\n"
        ". . 2\n. 1\n1\n\n. . 2\n. 1\n2\n\n. . 2\n. 2\n1\n\n. . 2\n. 2\n2\n"
    ),
    # an empty middle row, cut from the slots in reading order
    ("list-ssyt", "[3,2,1]", "2", "--inner", "[2,2]"): (
        ". . 1\n. .\n1\n\n. . 1\n. .\n2\n\n. . 2\n. .\n1\n\n. . 2\n. .\n2\n"
    ),
    ("schur", "[2,1]", "3"): SCHUR_21_IN_THREE_VARS,
    # whitespace around the digits, and leading zeros, are read as int reads them
    ("schur", "[2,1]", " 3 "): SCHUR_21_IN_THREE_VARS,
    ("schur", "[2,1]", "03"): SCHUR_21_IN_THREE_VARS,
    ("schur", "[2,1]", "3", "--list"): SSYT_21_IN_THREE_VARS,
    ("schur", "[]", "3"): "1\n",
    ("schur", "[1,1,1]", "2"): "0\n",
    # the listing agrees with the polynomial: only a shape without boxes has a filling in 0 variables
    ("schur", "[]", "0", "--list"): "(empty)\n",
    ("schur", "[1]", "0", "--list"): "\n",
    ("schur", "[1]", "0"): "0\n",
    ("schur", "[1]", "2", "--list"): "1\n\n2\n",
    ("schur", "[1,1]", "2", "--json"): (
        '{"command": "schur", "inputs": {"shape": [1, 1], "bound": 2}, '
        '"result": {"width": 2, "terms": [{"exponents": [1, 1], "coefficient": 1}]}}\n'
    ),
    ("lr", "[2,1]", "[2,1]", "[3,2,1]"): "2\n",
    ("lr", "[2,1]", "[1]", "[2]"): "0\n",
    ("lr", "[2,1]", "[2,1]", "[3,2,1]", "--verify"): "2 (verified)\n",
    # the product is formed in l(lambda) + l(mu) = 4 variables, not 14
    ("lr", "[4,3]", "[4,3]", "[8,6]", "--verify"): "1 (verified)\n",
    ("lr", "[11]", "[10]", "[21]", "--verify", "--max-boxes", "21"): "1 (verified)\n",
    # plain lr is unguarded
    ("lr", "[11]", "[10]", "[21]"): "1\n",
    ("lr", "[]", "[1200]", "[1200]"): "1\n",
    ("lr", "[2,1]", "[2,1]", "[3,2,1]", "--witnesses"): "2\n\n. . 1\n. 1\n2\n\n. . 1\n. 2\n1\n",
    ("lr", "[2,1]", "[2,1]", "[3,2,1]", "--witnesses", "--verify"): "2 (verified)\n\n. . 1\n. 1\n2\n\n. . 1\n. 2\n1\n",
    # an empty middle row, cut from the slots in reverse reading order
    ("lr", "[2,2]", "[1,1]", "[3,2,1]", "--witnesses"): "1\n\n. . 1\n. .\n2\n",
    ("lr", "[2,1]", "[2,1]", "[3,2,1]", "--witnesses", "--json"): (
        '{"command": "lr", "inputs": {"lambda": [2, 1], "mu": [2, 1], "nu": [3, 2, 1]}, '
        '"witnesses": [{"rows": [[1], [1], [2]], "outer": [3, 2, 1], "inner": [2, 1]}, '
        '{"rows": [[1], [2], [1]], "outer": [3, 2, 1], "inner": [2, 1]}], "result": 2}\n'
    ),
    ("lr", "[2,1]", "[2,1]", "[3,2,1]", "--witnesses", "--verify", "--json"): (
        '{"command": "lr", "inputs": {"lambda": [2, 1], "mu": [2, 1], "nu": [3, 2, 1]}, '
        '"witnesses": [{"rows": [[1], [1], [2]], "outer": [3, 2, 1], "inner": [2, 1]}, '
        '{"rows": [[1], [2], [1]], "outer": [3, 2, 1], "inner": [2, 1]}], '
        '"result": 2, "verified": true}\n'
    ),
    ("expand", "[1]", "[1]"): "[2]: 1\n[1,1]: 1\n",
    ("expand", "[2,1]", "[2,1]"): (
        "[4,2]: 1\n[4,1,1]: 1\n[3,3]: 1\n[3,2,1]: 2\n[3,1,1,1]: 1\n[2,2,2]: 1\n[2,2,1,1]: 1\n"
    ),
    ("expand", "[]", "[2,1]"): "[2,1]: 1\n",
    ("expand", "[1]", "[1]", "--json"): (
        '{"command": "expand", "inputs": {"lambda": [1], "mu": [1]}, '
        '"result": [{"partition": [2], "coefficient": 1}, {"partition": [1, 1], "coefficient": 1}]}\n'
    ),
    ("expand", "[2,1]", "[2,1]", "--json"): (
        '{"command": "expand", "inputs": {"lambda": [2, 1], "mu": [2, 1]}, "result": ['
        '{"partition": [4, 2], "coefficient": 1}, {"partition": [4, 1, 1], "coefficient": 1}, '
        '{"partition": [3, 3], "coefficient": 1}, {"partition": [3, 2, 1], "coefficient": 2}, '
        '{"partition": [3, 1, 1, 1], "coefficient": 1}, {"partition": [2, 2, 2], "coefficient": 1}, '
        '{"partition": [2, 2, 1, 1], "coefficient": 1}]}\n'
    ),
    ("rsk", "21453"): WORKED_PAIR,
    # whitespace around entries is ignored; glued digits are one entry each
    ("rsk", " 2, 1 ,4,\t5 , 3 "): WORKED_PAIR,
    ("rsk", "2 1 4 5 3"): WORKED_PAIR,
    ("rsk", "123"): "T:\n1 2 3\nU:\n1 2 3\n",
    ("rsk", "21453", "--json"): (
        '{"command": "rsk", "inputs": {"permutation": [2, 1, 4, 5, 3]}, "result": '
        '{"insertion": {"rows": [[1, 3, 5], [2, 4]]}, "recording": {"rows": [[1, 3, 4], [2, 5]]}}}\n'
    ),
    ("rsk", "21453", "--trace"): (
        "step 0:\nT:\n(empty)\nU:\n(empty)\n"
        "\nstep 1:\nT:\n2\nU:\n1\n"
        "\nstep 2:\nT:\n1\n2\nU:\n1\n2\n"
        "\nstep 3:\nT:\n1 4\n2\nU:\n1 3\n2\n"
        "\nstep 4:\nT:\n1 4 5\n2\nU:\n1 3 4\n2\n"
        "\nstep 5:\nT:\n1 3 5\n2 4\nU:\n1 3 4\n2 5\n"
    ),
    ("rsk", "21", "--trace", "--json"): (
        '{"command": "rsk", "inputs": {"permutation": [2, 1]}, "trace": ['
        '{"insertion": {"rows": []}, "recording": {"rows": []}}, '
        '{"insertion": {"rows": [[2]]}, "recording": {"rows": [[1]]}}, '
        '{"insertion": {"rows": [[1], [2]]}, "recording": {"rows": [[1], [2]]}}], '
        '"result": {"insertion": {"rows": [[1], [2]]}, "recording": {"rows": [[1], [2]]}}}\n'
    ),
    ("rsk", ROW_1001, "--trace", "--max-boxes", "1001"): _identity_trace(1001),
    # the guard leaves plain and inverse rsk unbounded
    ("rsk", ROW_5000): f"T:\n{_line(5000)}\nU:\n{_line(5000)}\n",
    ("rsk", "--invert", ROW_5000, ROW_5000): ROW_5000 + "\n",
    ("rsk", "--invert", "1,3,5/2,4", "1,3,4/2,5"): "21453\n",
    ("rsk", "--invert", " 1 , 3 , 5 / 2 , 4 ", "1,3,4 /2,5"): "21453\n",
    ("bk", "1,1/2", "1"): "1 2\n2\n",
    ("bk", " 1 , 1 / 2 ", "1"): "1 2\n2\n",
    ("bk", "1,1/2", "1", "--json"): (
        '{"command": "bk", "inputs": {"rows": [[1, 1], [2]], "inner": [], "index": 1}, '
        '"result": {"rows": [[1, 2], [2]]}}\n'
    ),
    ("bk", "1/1/2", "1", "--inner", "[2,1]"): ". . 2\n. 2\n1\n",
    ("bk", "1/1/2", "1", "--inner", "[2,1]", "--json"): (
        '{"command": "bk", "inputs": {"rows": [[1], [1], [2]], "inner": [2, 1], "index": 1}, '
        '"result": {"rows": [[2], [2], [1]], "outer": [3, 2, 1], "inner": [2, 1]}}\n'
    ),
    # "" is one row of no boxes when the inner shape has one row
    ("bk", "", "1", "--inner", "[2]"): ". .\n",
    ("bk", "/", "1", "--inner", "[2,1]"): ". .\n.\n",
}

# Each argv refused with exit code 1, nothing on stdout: its one stderr line, after "error: ".
# Every subcommand has a value that cannot be read among them; guard refusals and library
# errors are rows too.
ERROR_LINES = {
    ("count-syt", "[2,a]"): "expected comma-separated integers, got '[2,a]'",
    ("count-syt", "[2,3]"): "[2, 3] is not weakly decreasing after zero removal",
    ("count-syt", "[102]"): "count-syt asks for 102 boxes; guard is 100 (see --max-boxes)",
    ("list-syt", "2,1"): "expected bracketed parts like [4,2,1], got '2,1'",
    ("list-syt", "[21]"): "list-syt asks for 21 boxes; guard is 20 (see --max-boxes)",
    ("list-ssyt", "[2,1", "3"): "expected bracketed parts like [4,2,1], got '[2,1'",
    ("list-ssyt", "[2,1]", "x"): "expected an integer, got 'x'",
    ("list-ssyt", "[2,1]", "3", "--inner", "[1,2]"): "[1, 2] is not weakly decreasing after zero removal",
    ("list-ssyt", "[2,1]", "3", "--inner", "[3]"): "[3] is not contained in [2,1]",
    ("schur", "[1 1]", "3"): "expected comma-separated integers, got '[1 1]'",
    ("schur", "[2,1]", "3.0"): "expected an integer, got '3.0'",
    ("schur", "[21]", "2"): "schur asks for 21 boxes; guard is 20 (see --max-boxes)",
    # a refusal is a plain line on stderr under --json too
    ("schur", "[21]", "2", "--json"): "schur asks for 21 boxes; guard is 20 (see --max-boxes)",
    ("lr", "[x]", "[1]", "[2]"): "expected comma-separated integers, got '[x]'",
    ("lr", "[1]", "[-1]", "[2]"): "part must be nonnegative, got -1",
    ("lr", "[1]", "[1]", "[2,,]"): "expected comma-separated integers, got '[2,,]'",
    ("lr", "[11]", "[10]", "[21]", "--verify"): "lr asks for 21 boxes; guard is 20 (see --max-boxes)",
    ("expand", "", "[1]"): "expected bracketed parts like [4,2,1], got ''",
    ("expand", "[1]", "[٢]"): "expected comma-separated integers, got '[٢]'",
    ("expand", "[11]", "[10]"): "expand asks for 21 boxes; guard is 20 (see --max-boxes)",
    ("rsk", "2145"): "[2, 1, 4, 5] is not a permutation of 1..4",
    ("rsk", "1_0,2", "--trace"): "bad one-line notation: '1_0,2'",
    ("rsk", "21", "12"): "expected exactly one permutation argument",
    # deleting the space would read "1 0" as 10, and "1 2" as 12 (then a shape error)
    ("rsk", "1,2,3,4,5,6,7,8,9,1 0"): "bad one-line notation: '1,2,3,4,5,6,7,8,9,1 0'",
    ("rsk", ROW_1001, "--trace"): "rsk asks for 1001 boxes; guard is 1000 (see --max-boxes)",
    ("rsk", "--invert", "1,2/x", "1,2/3"): "bad row string '1,2/x'; expected e.g. 1,3,5/2,4",
    ("rsk", "--invert", "1,2/3", "1;2/3"): "bad row string '1;2/3'; expected e.g. 1,3,5/2,4",
    ("rsk", "--invert", "1 2/3", "1,3/2"): "bad row string '1 2/3'; expected e.g. 1,3,5/2,4",
    ("rsk", "--invert", "1,2/3", "1,3/ 2 4"): "bad row string '1,3/ 2 4'; expected e.g. 1,3,5/2,4",
    ("rsk", "--invert", "1,2"): "--invert needs exactly two row strings: T U",
    ("rsk", "--invert", "1,2", "1,2", "1"): "--invert needs exactly two row strings: T U",
    ("rsk", "--invert", "1,2/3", "1,2,3"): "need two straight tableaux of equal shape",
    ("rsk", "--invert", "1,1/2", "1,1/2"): "both tableaux must be standard",
    ("rsk", "--invert", "2,1/3", "1,2/3"): "both tableaux must be standard",
    ("rsk", "--invert", "1,3/2", "1,2/4"): "both tableaux must be standard",
    ("rsk", "--invert", "1,2/0", "1,2/3"): "entry must be at least 1, got 0",
    ("rsk", "--invert", "1,2/", "1,2"): "expected 1 rows for [2], got 2",
    ("bk", "1,a", "1"): "bad row string '1,a'; expected e.g. 1,3,5/2,4",
    ("bk", "1 1/2", "1"): "bad row string '1 1/2'; expected e.g. 1,3,5/2,4",
    ("bk", "1,1/2", "one"): "expected an integer, got 'one'",
    ("bk", "1/2", "1", "--inner", "[x]"): "expected comma-separated integers, got '[x]'",
    ("bk", "2,1/1", "1"): "operation is only defined on semistandard fillings",
    # int() reads each of these: an entry or integer argument is ASCII digits after a minus sign at most
    ("count-syt", "[2_1]"): "expected comma-separated integers, got '[2_1]'",
    ("count-syt", "[٣]"): "expected comma-separated integers, got '[٣]'",
    ("schur", "[2,1]", "1_0"): "expected an integer, got '1_0'",
    ("schur", "[2,1]", "+3"): "expected an integer, got '+3'",
    ("list-ssyt", "[1]", "٣"): "expected an integer, got '٣'",
    ("rsk", "1_0,2,3,4,5,6,7,8,9,1"): "bad one-line notation: '1_0,2,3,4,5,6,7,8,9,1'",
    ("rsk", "٢١"): "bad one-line notation: '٢١'",
    ("rsk", "--invert", "+1,2", "1,2"): "bad row string '+1,2'; expected e.g. 1,3,5/2,4",
    ("rsk", "--invert", "1,+2", "1,2"): "bad row string '1,+2'; expected e.g. 1,3,5/2,4",
    ("bk", "1,+2", "1"): "bad row string '1,+2'; expected e.g. 1,3,5/2,4",
    ("bk", "1,1/2", "+1"): "expected an integer, got '+1'",
}

# A missing or extra positional, an unknown option, two options that exclude each other or a
# bad --max-boxes: argparse's usage error, before any value is read. Its last stderr line ends
# "error: " and the reason; the usage text above it, and the list of choices after an invalid
# one, are worded differently across Python versions.
FORM_ERRORS = {
    ("count-syt",): "the following arguments are required: shape",
    ("count-syt", "[1]", "[2]"): "unrecognized arguments: [2]",
    ("count-syt", "[1]", "--bogus"): "unrecognized arguments: --bogus",
    ("list-syt",): "the following arguments are required: shape",
    ("list-ssyt", "[1]"): "the following arguments are required: bound",
    ("schur", "[1]"): "the following arguments are required: bound",
    ("lr", "[1]", "[1]"): "the following arguments are required: nu",
    ("expand", "[1]"): "the following arguments are required: mu",
    ("rsk",): "the following arguments are required: PERM | T U",
    ("rsk", "21", "--invrt"): "unrecognized arguments: --invrt",
    ("rsk", "--invert", "--trace", "1,3/2", "1,2/3"): "argument --trace: not allowed with argument --invert",
    ("rsk", "--invert", "--trace", ROW_5000, ROW_5000): "argument --trace: not allowed with argument --invert",
    ("bk", "1"): "the following arguments are required: index",
    ("bk", "1", "1", "1"): "unrecognized arguments: 1",
    ("frobnicate", "[1]"): "argument COMMAND: invalid choice: 'frobnicate'",
    ("count-syt", "[]", "--max-boxes", "-1"): "argument --max-boxes: must be nonnegative, got -1",
    ("--max-boxes", "-5", "count-syt", "[]"): "argument --max-boxes: must be nonnegative, got -5",
    ("count-syt", "[2,1]", "--max-boxes", "1_0"): "argument --max-boxes: invalid int value: '1_0'",
}

REUSE_SEQUENCE = [
    ["lr", "[2,1]"],  # argparse refuses: exit 2
    ["rsk", "2145"],  # the library raises ValueError: exit 1
    ["list-ssyt", "[21]", "1"],  # guard refusal
    ["list-syt", "[21]", "--max-boxes", "21"],
    ["list-syt", "[21]"],  # the override above must not persist
    ["list-ssyt", "[2,2]", "2", "--inner", "[1]"],
    ["list-ssyt", "[3,1]", "2", "--inner", "[1]"],
    ["list-ssyt", "[3,1]", "2"],  # the inner shape above must not persist
    ["--json", "count-syt", "[2,1]"],
    ["count-syt", "[2,1]", "--json"],
    ["count-syt", "[2,1]"],  # --json above must not persist
    ["rsk", "--invert", "1,3,5/2,4", "1,3,4/2,5"],
]


# Rows that each run in the test of that name below, where an earlier test pinned them, and
# that TestArgumentContract's parametrized tests leave out, so each row still runs once.
NAMED_ROWS = {
    "test_max_boxes_is_ascii_digits_too": [
        ("count-syt", "[2,1]", "--max-boxes", "1_0"), ("schur", "[2,1]", " 3 "), ("schur", "[2,1]", "03"),
    ],
    "test_guard": [("schur", "[21]", "2")],
    "test_witnesses": [
        ("lr", "[2,1]", "[2,1]", "[3,2,1]", "--witnesses"),
        ("lr", "[2,1]", "[2,1]", "[3,2,1]", "--witnesses", "--verify"),
        ("lr", "[2,2]", "[1,1]", "[3,2,1]", "--witnesses"),
    ],
    "test_json_with_witnesses": [("lr", "[2,1]", "[2,1]", "[3,2,1]", "--witnesses", "--json")],
    "test_json_raw_text": [("lr", "[2,1]", "[2,1]", "[3,2,1]", "--witnesses", "--verify", "--json")],
    "test_invert_pins_the_error_line_of_each_malformed_pair": [
        ("rsk", "--invert", "1,2/3", "1,2,3"),
        ("rsk", "--invert", "1,1/2", "1,1/2"),
        ("rsk", "--invert", "2,1/3", "1,2/3"),
        ("rsk", "--invert", "1,3/2", "1,2/4"),
        ("rsk", "--invert", "1,2/0", "1,2/3"),
        ("rsk", "--invert", "1,2/", "1,2"),
        ("rsk", "--invert", "1,+2", "1,2"),
        ("rsk", "--invert", "1,2", "1,2", "1"),
    ],
    "test_errors_go_to_stderr_not_stdout": [("schur", "[21]", "2", "--json")],
}
_NAMED = {argv for rows in NAMED_ROWS.values() for argv in rows}


def _rows(table):
    return [argv for argv in table if argv not in _NAMED]


def check(argv):
    """Run argv twice and hold both runs to its row of ANSWERS, ERROR_LINES or FORM_ERRORS."""
    if argv in ANSWERS:
        assert [outcome(argv), outcome(argv)] == [(0, ANSWERS[argv], "")] * 2
    elif argv in ERROR_LINES:
        assert [outcome(argv), outcome(argv)] == [(1, "", f"error: {ERROR_LINES[argv]}\n")] * 2
    else:
        code, out, err = outcome(argv)
        assert outcome(argv) == (code, out, err)
        assert (code, out) == (2, "")
        assert err.startswith("usage: ") and "Traceback" not in err
        reason = err.splitlines()[-1].partition(": error: ")[2].partition(" (choose from ")[0]
        assert reason == FORM_ERRORS[argv]


def check_named(name):
    for argv in NAMED_ROWS[name]:
        check(argv)


class TestArgumentContract:
    @pytest.mark.parametrize("argv", _rows(ANSWERS), ids=_id)
    def test_an_answer_is_its_stdout_alone(self, argv):
        check(argv)

    @pytest.mark.parametrize("argv", _rows(ERROR_LINES), ids=_id)
    def test_an_unreadable_value_is_one_error_line(self, argv):
        check(argv)

    @pytest.mark.parametrize("argv", _rows(FORM_ERRORS), ids=_id)
    def test_a_form_error_is_a_usage_error(self, argv):
        check(argv)

    def test_max_boxes_is_ascii_digits_too(self):
        check_named("test_max_boxes_is_ascii_digits_too")

    def test_every_named_row_is_a_row_of_one_table(self):
        named = [argv for rows in NAMED_ROWS.values() for argv in rows]
        assert len(named) == len(_NAMED)
        assert [argv for argv in named if sum(argv in table for table in (ANSWERS, ERROR_LINES, FORM_ERRORS)) != 1] == []

    def test_every_subcommand_has_a_malformed_value_in_the_table(self):
        (commands,) = [action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        assert {argv[0] for argv in ERROR_LINES} == set(commands)

    def test_no_argv_is_pinned_twice(self):
        # a repeated key of a dict display keeps only its last row, silently
        tables = {node.targets[0].id: len(node.value.keys) for node in ast.parse(Path(__file__).read_text("utf-8")).body
                  if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)}
        assert tables == {"ANSWERS": len(ANSWERS), "ERROR_LINES": len(ERROR_LINES), "FORM_ERRORS": len(FORM_ERRORS),
                          "NAMED_ROWS": len(NAMED_ROWS)}

    def test_every_readme_example_is_an_answer(self):
        # the lines of README's command examples, each "tableaux ..." and a comment
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        examples = [shlex.split(line, comments=True)[1:]
                    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
                    for line in block.splitlines() if line.startswith("tableaux ")]
        assert len(examples) == 13
        assert [argv for argv in examples if tuple(argv) not in ANSWERS] == []


class TestSchur:
    def test_guard(self):
        check_named("test_guard")

    def test_filled_output_is_pinned(self):
        # 4410 terms at width 10, and exponents of two digits: the sha256 of stdout
        golden = {
            ("[3,2,1]", "10"): (
                "fe867d86f06524903bc667fdc4b78172981c7cd6730dcfe30e60845d8b9b3734",
                "3ac6946238bb26ca8359af937dd5d235248d3f2fe1770b85f8c6ae5cbe736945",
            ),
            ("[12]", "3"): (
                "fb99be5cd84d1538524d664867eaef4d9b2657f0ac1e86054e54130a06285b3b",
                "1e43f80006b4ae6ddd4d35ccbab3b10db834d297b0332d0385ad86457bce3362",
            ),
        }
        for (shape, bound), (text, as_json) in golden.items():
            for flags, digest in (((), text), (("--json",), as_json)):
                code, out, err = outcome(["schur", shape, bound, *flags])
                assert (code, err) == (0, "")
                assert hashlib.sha256(out.encode()).hexdigest() == digest, (shape, flags)


class TestLr:
    def test_witnesses(self):
        check_named("test_witnesses")

    def test_json_with_witnesses(self):
        check_named("test_json_with_witnesses")

    def test_json_raw_text(self):
        check_named("test_json_raw_text")

    def test_verify_mismatch_is_an_error(self, monkeypatch):
        monkeypatch.setattr(tableaux.cli, "lr_coefficient", lambda lam, mu, nu: 3)
        assert outcome(["lr", "[2,1]", "[2,1]", "[3,2,1]", "--verify"]) == (1, "", (
            "error: rule gives 3 but the Schur expansion gives 2 for [3,2,1]; this is an implementation bug\n"))


class TestExpand:
    def test_tall_columns_are_quick(self, monkeypatch):
        # lam_1 + mu_1 = 2 < l(lam) + l(mu) = 16: expanded through the conjugates in 2 variables
        widths = []
        build = tableaux.schur.schur_polynomial

        def recorded(shape, width):
            widths.append(width)
            return build(shape, width)

        monkeypatch.setattr(tableaux.schur, "schur_polynomial", recorded)
        column = "[" + ",".join(["1"] * 8) + "]"
        code, out, err = outcome(["expand", column, column])
        assert widths == [2, 2]
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            format_partition(Partition((2,) * k + (1,) * (16 - 2 * k))) + ": 1"
            for k in range(8, -1, -1)
        ]

    def test_json_matches_full_width_expansion_up_to_six(self, pairs):
        for n in range(7):
            for lam, mu in pairs(n):
                _, out, _ = outcome(["expand", format_partition(lam), format_partition(mu), "--json"])
                full = schur_expand(schur_polynomial(lam, n) * schur_polynomial(mu, n))
                assert json.loads(out)["result"] == [
                    {"partition": list(nu.parts), "coefficient": c} for nu, c in full.items()
                ], (lam, mu)


class TestRsk:
    @pytest.mark.parametrize("argv", [
        ["rsk", "21453"],
        ["rsk", "--invert", "1,3,5/2,4", "1,3,4/2,5"],
        ["rsk", "21453", "--trace"],
    ])
    def test_each_mode_builds_only_the_printed_form(self, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("built a form that main does not print")

        text, as_json = outcome(argv), outcome([*argv, "--json"])
        with monkeypatch.context() as patch:
            patch.setattr(tableaux.cli, "_filling_payload", refuse)
            assert outcome(argv) == text
        with monkeypatch.context() as patch:
            patch.setattr(Filling, "to_ascii", refuse)
            assert outcome([*argv, "--json"]) == as_json

    def test_invert_pins_the_error_line_of_each_malformed_pair(self):
        check_named("test_invert_pins_the_error_line_of_each_malformed_pair")

    def test_output_is_pinned(self):
        # the sha256 of stdout, text then JSON, for a permutation of 200, its pair, and a trace of 12
        images = random.Random(200).sample(range(1, 201), 200)
        perm, pair = ",".join(map(str, images)), rsk(images)
        t, u = ("/".join(",".join(map(str, row)) for row in f.rows) for f in (pair.insertion, pair.recording))
        small = ",".join(map(str, random.Random(12).sample(range(1, 13), 12)))
        golden = [
            (("rsk", perm),
             "6904af8ac9c979aac27ba466b97f4c08a4ceab4b97ed6f4a8ebd4af4a3fb1eeb",
             "2d0ad3cb0182930a08d6bc7f19bfff593a4e41b00a3306d7fb53387a54579b32"),
            (("rsk", "--invert", t, u),
             "e45bcd76f4c4de34d11b4553f5bb5b62c5782146261da5aa788cb1eaac15fa00",
             "6bc1e16f3599920eb3267a2ab797dc9dc84d8206468028ebbb3b68ad8029021c"),
            (("rsk", small, "--trace"),
             "0ad20fdfb7ad68c8c4519a8611365d55332a39ea1ca1e57e3d19d869761aab9b",
             "7efd943e063b01409d62972c013b899102a7c6d347d605e7947ef49c4c657978"),
        ]
        for argv, text, as_json in golden:
            for flags, digest in (((), text), (("--json",), as_json)):
                code, out, err = outcome([*argv, *flags])
                assert (code, err) == (0, "")
                assert hashlib.sha256(out.encode()).hexdigest() == digest, (argv[:2], flags)


class TestGlobalBehavior:
    def test_missing_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code != 0

    def test_one_parser_serves_every_call(self):
        # the cached parser, reused across the whole sequence, must answer each argv as a
        # parser built just for it does; overrides and flags must not carry over
        reused = [outcome(argv) for argv in REUSE_SEQUENCE]
        fresh = []
        for argv in REUSE_SEQUENCE:
            tableaux.cli._parser.cache_clear()
            fresh.append(outcome(argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [2, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0]
        assert reused[3][1] == " ".join(str(i) for i in range(1, 22)) + "\n"
        assert reused[4][2].startswith("error: list-syt asks for 21 boxes; guard is 20")
        assert reused[6][1] != reused[7][1]
        assert reused[8] == reused[9] and reused[10][1] != reused[8][1]
        assert reused[11][1] == "21453\n"

    def test_errors_go_to_stderr_not_stdout(self):
        check_named("test_errors_go_to_stderr_not_stdout")

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()
        assert tableaux.cli._parser() is tableaux.cli._parser()

    def test_closed_pipe_exits_without_traceback(self, process_env):
        # about 470 kB of text, far more than a pipe buffers, so the writer
        # is still printing when the reader closes its end
        proc = subprocess.Popen(
            [sys.executable, "-m", "tableaux", "list-syt", "[5,4,3,1]"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=process_env,
        )
        assert proc.stdout.readline() == b"1 2 3 4 5\n"
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert code == 1
        assert "Traceback" not in err and "Exception ignored" not in err

    @pytest.mark.parametrize(
        "argv, code", [(["count-syt", "[2_1]"], 1), (["rsk", "1_0,2"], 1), (["count-syt"], 2)]
    )
    def test_refusals_exit_cleanly_as_processes(self, argv, code, process_env):
        # a malformed shape, a malformed permutation and a missing positional, each run by a
        # fresh interpreter: never a traceback, and exit code 1 is one stderr line
        proc = subprocess.run(
            [sys.executable, "-m", "tableaux", *argv], capture_output=True, text=True, env=process_env, timeout=60
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if code == 1:
            assert len(proc.stderr.splitlines()) == 1, proc.stderr


# A few values no reader accepts, drawn now and then among the valid ones
BAD_SHAPES = ["", "[", "2,1", "[2_1]", "[٣]", "[1,2]", "[-1]", "[a]", "[2 1]"]
BAD_INTS = ["", "x", "1_0", "+3", "٣", "2.0", "-1"]
SHAPES = [format_partition(p) for n in range(9) for p in partitions_of(n)] + BAD_SHAPES
FACTORS = [format_partition(p) for n in range(5) for p in partitions_of(n)] + BAD_SHAPES
BOUNDS = [str(n) for n in range(5)] * 4 + BAD_INTS


def small_argvs(count):
    """Each subcommand on no boxes, one box and 8 (factors of 4), then ``count`` seeded argvs.

    Those give each subcommand its arity: shapes of at most 8 boxes (factors of at most 4, so products
    stay within 8), bounds at most 4, a malformed shape or bound now and then, filling rows mostly invalid.
    """
    for shape, factor, perm, rows in (("[]", "[]", "", ""), ("[1]", "[1]", "1", "1"),
                                      ("[8]", "[4]", "87654321", "1,2,3,4,5,6,7,8"),
                                      ("[1,1,1,1,1,1,1,1]", "[1,1,1,1]", "12345678", "1/2/3/4/5/6/7/8"),
                                      ("[4,2,2]", "[2,2]", "26371485", "1,2,3,4/5,6/7,8")):
        yield from (["count-syt", shape], ["list-syt", shape], ["list-ssyt", shape, "4", "--inner", factor],
                    ["schur", shape, "4", "--list"], ["lr", factor, factor, shape, "--witnesses", "--verify"],
                    ["expand", factor, factor], ["rsk", perm, "--trace"], ["rsk", "--invert", rows, rows],
                    ["bk", rows, "1"])
    rng = random.Random(0)

    def maybe(*args):
        return rng.choice([[], list(args)])

    def rows():
        return "/".join(",".join(map(str, rng.choices(range(1, 5), k=rng.randint(1, 3))))
                        for _ in range(rng.randint(0, 3)))

    def permutation():
        if rng.random() < 0.5:
            return "".join(rng.choices("0123456789,", k=rng.randint(0, 6)))
        n = rng.randint(0, 8)
        return "".join(map(str, rng.sample(range(1, n + 1), n)))

    commands = [
        lambda: ["count-syt", rng.choice(SHAPES)],
        lambda: ["list-syt", rng.choice(SHAPES)],
        lambda: ["list-ssyt", rng.choice(SHAPES), rng.choice(BOUNDS), *maybe("--inner", rng.choice(SHAPES))],
        lambda: ["schur", rng.choice(SHAPES), rng.choice(BOUNDS), *maybe("--list")],
        lambda: ["lr", *rng.choices(FACTORS, k=2), rng.choice(SHAPES), *maybe("--witnesses"), *maybe("--verify")],
        lambda: ["expand", *rng.choices(FACTORS, k=2)],
        lambda: ["rsk", permutation(), *maybe("--trace")],
        lambda: ["rsk", "--invert", rows(), rows()],
        lambda: ["bk", rows(), rng.choice(BOUNDS), *maybe("--inner", rng.choice(SHAPES))],
    ]
    for _ in range(count):
        yield rng.choice(commands)() + maybe("--json") + maybe("--max-boxes", str(rng.randint(0, 8)))


# The slowest argv measured took 16 ms (lr [3,1] [2,1,1] [6,1,1] --witnesses --verify
# --json, cold schur_polynomial cache; 14549 argvs of the listing, lr --verify and expand
# families below timed one by one); 250 ms is over 15 times that.
def test_every_command_answers_or_fails_cleanly():
    for argv in small_argvs(300):
        started = time.perf_counter()
        code, out, err = outcome(argv)
        assert time.perf_counter() - started < 0.25, argv
        assert code in (0, 1), argv
        if code == 1:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, argv


def fillings():
    """Every straight or skew shape in 8 boxes, filled with seeded entries 1..20, then semistandard (row r holds r + 1)."""
    rng = random.Random(0)
    for outer in [p for n in range(1, 9) for p in partitions_of(n)]:
        for inner in [p for k in range(outer.size + 1) for p in partitions_of(k) if outer.contains(p)]:
            skew = SkewShape(outer, inner)
            spans = [hi - lo for lo, hi in map(skew.row_span, range(skew.nrows))]
            yield Filling(skew, [rng.choices(range(1, 21), k=length) for length in spans])
            yield Filling(skew, [[r + 1] * length for r, length in enumerate(spans)])


def test_rows_string_round_trip():
    # the fillings of no boxes inside [2] and inside [2,1], written "" and "/", come first
    empty = [Filling(SkewShape(Partition((2,)), Partition((2,))), ((),)),
             Filling(SkewShape(Partition((2, 1)), Partition((2, 1))), ((), ()))]
    for filling in [*empty, *fillings()]:
        text = "/".join(",".join(map(str, row)) for row in filling.rows)
        inner = filling.shape.inner
        # a one-row filling of no boxes renders as "", which parses to no rows; from_rows infers that row
        assert Filling.from_rows(_parse_rows(text), inner) == filling, filling
        if filling.is_semistandard():
            code, out = outcome(["bk", text, "1", "--inner", format_partition(inner)])[:2]
            assert code == 0 and out.rstrip("\n") == bender_knuth(filling, 1).to_ascii()
