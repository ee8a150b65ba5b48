import argparse
import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

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

SCHUR_21_IN_THREE_VARS = (
    "1 * x1^2 x2 + 1 * x1^2 x3 + 1 * x1 x2^2 + 2 * x1 x2 x3"
    " + 1 * x1 x3^2 + 1 * x2^2 x3 + 1 * x2 x3^2"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def outcome(argv):
    """Exit code, stdout and stderr of one in-process call, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


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


class TestCountSyt:
    def test_headline(self, capsys):
        code, out, err = run(capsys, "count-syt", "[4,2,1]")
        assert (code, out, err) == (0, "35\n", "")

    def test_empty_partition(self, capsys):
        assert run(capsys, "count-syt", "[]")[:2] == (0, "1\n")

    def test_two_by_two(self, capsys):
        assert run(capsys, "count-syt", "[2,2]")[:2] == (0, "2\n")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "count-syt", "[4,2,1]", "--json")
        assert code == 0
        assert json.loads(out) == {
            "command": "count-syt",
            "inputs": {"shape": [4, 2, 1]},
            "result": 35,
        }

    def test_parse_failure_exits_nonzero(self, capsys):
        assert run(capsys, "count-syt", "[2,3]") == (
            1, "", "error: [2, 3] is not weakly decreasing after zero removal\n")

    def test_guard(self, capsys):
        code, out, err = run(capsys, "count-syt", "[102]")
        assert code == 1
        assert out == ""
        assert "error" in err
        code, out, err = run(capsys, "count-syt", "[102]", "--max-boxes", "102")
        assert (code, out) == (0, "1\n")

    def test_negative_guard_is_a_usage_error(self):
        # refused while parsing, as a non-integer N is, before any guard or handler runs
        argvs = (["count-syt", "[]", "--max-boxes", "-1"], ["--max-boxes", "-5", "count-syt", "[]"])
        for argv in argvs:
            code, out, err = outcome(argv)
            assert (code, out) == (2, "")
            assert err.startswith("usage: ") and "--max-boxes: must be nonnegative" in err
            assert "Traceback" not in err
        assert outcome(["count-syt", "[]", "--max-boxes", "0"]) == (0, "1\n", "")


class TestListCommands:
    def test_list_syt(self, capsys):
        code, out, _ = run(capsys, "list-syt", "[2,2]")
        assert code == 0
        assert out == "1 2\n3 4\n\n1 3\n2 4\n"

    def test_list_syt_json(self, capsys):
        _, out, _ = run(capsys, "list-syt", "[2,2]", "--json")
        assert json.loads(out)["result"] == [
            {"rows": [[1, 2], [3, 4]]},
            {"rows": [[1, 3], [2, 4]]},
        ]

    def test_list_syt_guard_override(self, capsys):
        code, _, err = run(capsys, "list-syt", "[21]")
        assert code == 1 and "error" in err
        code, out, _ = run(capsys, "list-syt", "[21]", "--max-boxes", "21")
        assert code == 0
        assert out.strip() == " ".join(str(i) for i in range(1, 22))

    def test_list_ssyt_counts_the_eight(self, capsys):
        _, out, _ = run(capsys, "list-ssyt", "[2,1]", "3")
        assert out.count("\n\n") == 7

    def test_list_ssyt_skew(self, capsys):
        # (2,2)/(1) with entries <= 2: the box over the column forces a 1 above a 2
        code, out, _ = run(capsys, "list-ssyt", "[2,2]", "2", "--inner", "[1]")
        assert code == 0
        assert out == ". 1\n1 2\n\n. 1\n2 2\n"
        # an empty middle row, cut from the slots in reading order
        code, out, _ = run(capsys, "list-ssyt", "[3,2,1]", "2", "--inner", "[2,2]")
        assert code == 0
        assert out == ". . 1\n. .\n1\n\n. . 1\n. .\n2\n\n. . 2\n. .\n1\n\n. . 2\n. .\n2\n"

    def test_long_rows_do_not_recurse(self, capsys):
        result = run(capsys, "list-ssyt", "[1200]", "1", "--max-boxes", "1200")
        assert result == (0, " ".join(["1"] * 1200) + "\n", "")
        result = run(capsys, "list-syt", "[1000]", "--max-boxes", "1000")
        assert result == (0, " ".join(str(i) for i in range(1, 1001)) + "\n", "")
        column = "[" + ",".join(["1"] * 1200) + "]"
        result = run(capsys, "list-syt", column, "--max-boxes", "1200")
        assert result == (0, "".join(f"{i}\n" for i in range(1, 1201)), "")

    def test_list_ssyt_empty_result(self, capsys):
        code, out, _ = run(capsys, "list-ssyt", "[1,1,1,1]", "3")
        assert (code, out) == (0, "\n")


class TestSchur:
    def test_seven_term_polynomial(self, capsys):
        code, out, _ = run(capsys, "schur", "[2,1]", "3")
        assert (code, out) == (0, SCHUR_21_IN_THREE_VARS + "\n")

    def test_empty_shape(self, capsys):
        assert run(capsys, "schur", "[]", "3")[:2] == (0, "1\n")

    def test_zero_polynomial(self, capsys):
        assert run(capsys, "schur", "[1,1,1]", "2")[:2] == (0, "0\n")

    def test_zero_variables(self, capsys):
        # the listing agrees with the polynomial: only a shape without boxes has a filling
        assert run(capsys, "schur", "[]", "0", "--list")[:2] == (0, "(empty)\n")
        assert run(capsys, "schur", "[1]", "0", "--list")[:2] == (0, "\n")
        assert run(capsys, "schur", "[1]", "0")[:2] == (0, "0\n")

    def test_list_flag_prints_tableaux(self, capsys):
        _, out, _ = run(capsys, "schur", "[1]", "2", "--list")
        assert out == "1\n\n2\n"

    def test_json_terms(self, capsys):
        _, out, _ = run(capsys, "schur", "[1,1]", "2", "--json")
        payload = json.loads(out)
        assert payload["result"]["terms"] == [{"exponents": [1, 1], "coefficient": 1}]

    def test_guard(self, capsys):
        code, _, err = run(capsys, "schur", "[21]", "2")
        assert code == 1 and "error" in err

    def test_filled_output_is_pinned(self, capsys):
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
                code, out, _ = run(capsys, "schur", shape, bound, *flags)
                assert code == 0
                assert hashlib.sha256(out.encode()).hexdigest() == digest, (shape, flags)


class TestLr:
    def test_coefficient_two(self, capsys):
        assert run(capsys, "lr", "[2,1]", "[2,1]", "[3,2,1]")[:2] == (0, "2\n")

    def test_size_mismatch(self, capsys):
        assert run(capsys, "lr", "[2,1]", "[1]", "[2]")[:2] == (0, "0\n")

    def test_verified(self, capsys):
        code, out, _ = run(capsys, "lr", "[2,1]", "[2,1]", "[3,2,1]", "--verify")
        assert (code, out) == (0, "2 (verified)\n")

    def test_verify_of_two_row_shapes_is_quick(self, capsys):
        # the product is formed in l(lambda) + l(mu) = 4 variables, not 14
        code, out, _ = run(capsys, "lr", "[4,3]", "[4,3]", "[8,6]", "--verify")
        assert (code, out) == (0, "1 (verified)\n")

    def test_witnesses(self, capsys):
        code, out, _ = run(capsys, "lr", "[2,1]", "[2,1]", "[3,2,1]", "--witnesses")
        assert code == 0
        assert out == "2\n\n. . 1\n. 1\n2\n\n. . 1\n. 2\n1\n"
        # an empty middle row, cut from the slots in reverse reading order
        assert run(capsys, "lr", "[2,2]", "[1,1]", "[3,2,1]", "--witnesses") == (0, "1\n\n. . 1\n. .\n2\n", "")

    def test_verify_is_guarded_and_plain_lr_is_not(self, capsys):
        code, out, err = run(capsys, "lr", "[11]", "[10]", "[21]", "--verify")
        assert (code, out) == (1, "") and err.startswith("error: ")
        result = run(capsys, "lr", "[11]", "[10]", "[21]", "--verify", "--max-boxes", "21")
        assert result == (0, "1 (verified)\n", "")
        assert run(capsys, "lr", "[11]", "[10]", "[21]") == (0, "1\n", "")
        assert run(capsys, "lr", "[]", "[1200]", "[1200]") == (0, "1\n", "")

    def test_json_raw_text(self, capsys):
        argv = ["lr", "[2,1]", "[2,1]", "[3,2,1]", "--witnesses", "--verify", "--json"]
        assert run(capsys, *argv) == (0, (
            '{"command": "lr", "inputs": {"lambda": [2, 1], "mu": [2, 1], "nu": [3, 2, 1]}, '
            '"witnesses": [{"rows": [[1], [1], [2]], "outer": [3, 2, 1], "inner": [2, 1]}, '
            '{"rows": [[1], [2], [1]], "outer": [3, 2, 1], "inner": [2, 1]}], '
            '"result": 2, "verified": true}\n'
        ), "")

    def test_verify_mismatch_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setattr(tableaux.cli, "lr_coefficient", lambda lam, mu, nu: 3)
        code, out, err = run(capsys, "lr", "[2,1]", "[2,1]", "[3,2,1]", "--verify")
        assert (code, out) == (1, "")
        assert err.startswith("error: rule gives 3 but the Schur expansion gives 2")

    def test_json_with_witnesses(self, capsys):
        _, out, _ = run(capsys, "lr", "[2,1]", "[2,1]", "[3,2,1]", "--witnesses", "--json")
        payload = json.loads(out)
        assert payload["result"] == 2
        assert payload["witnesses"] == [
            {"rows": [[1], [1], [2]], "outer": [3, 2, 1], "inner": [2, 1]},
            {"rows": [[1], [2], [1]], "outer": [3, 2, 1], "inner": [2, 1]},
        ]


class TestExpand:
    def test_pieri_case(self, capsys):
        code, out, _ = run(capsys, "expand", "[1]", "[1]")
        assert (code, out) == (0, "[2]: 1\n[1,1]: 1\n")

    def test_square_of_two_one(self, capsys):
        code, out, _ = run(capsys, "expand", "[2,1]", "[2,1]")
        assert code == 0
        assert "[3,2,1]: 2" in out.splitlines()
        assert out == (
            "[4,2]: 1\n[4,1,1]: 1\n[3,3]: 1\n[3,2,1]: 2\n"
            "[3,1,1,1]: 1\n[2,2,2]: 1\n[2,2,1,1]: 1\n"
        )

    def test_empty_factor(self, capsys):
        assert run(capsys, "expand", "[]", "[2,1]")[:2] == (0, "[2,1]: 1\n")

    def test_json(self, capsys):
        _, out, _ = run(capsys, "expand", "[1]", "[1]", "--json")
        assert json.loads(out)["result"] == [
            {"partition": [2], "coefficient": 1},
            {"partition": [1, 1], "coefficient": 1},
        ]

    def test_guard(self, capsys):
        code, _, err = run(capsys, "expand", "[11]", "[10]")
        assert code == 1 and "error" in err

    def test_tall_columns_are_quick(self, capsys, monkeypatch):
        # lam_1 + mu_1 = 2 < l(lam) + l(mu) = 16: expanded through the conjugates in 2 variables
        widths = []
        build = tableaux.schur.schur_polynomial

        def recorded(shape, width):
            widths.append(width)
            return build(shape, width)

        monkeypatch.setattr(tableaux.schur, "schur_polynomial", recorded)
        column = "[" + ",".join(["1"] * 8) + "]"
        code, out, _ = run(capsys, "expand", column, column)
        assert widths == [2, 2]
        assert code == 0
        assert out.splitlines() == [
            format_partition(Partition((2,) * k + (1,) * (16 - 2 * k))) + ": 1"
            for k in range(8, -1, -1)
        ]

    def test_json_matches_full_width_expansion_up_to_six(self, capsys, pairs):
        for n in range(7):
            for lam, mu in pairs(n):
                _, out, _ = run(capsys, "expand", format_partition(lam), format_partition(mu), "--json")
                full = schur_expand(schur_polynomial(lam, n) * schur_polynomial(mu, n))
                assert json.loads(out)["result"] == [
                    {"partition": list(nu.parts), "coefficient": c} for nu, c in full.items()
                ], (lam, mu)


class TestRsk:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "rsk", "21453")
        assert (code, out) == (0, "T:\n1 3 5\n2 4\nU:\n1 3 4\n2 5\n")

    def test_identity(self, capsys):
        assert run(capsys, "rsk", "123")[:2] == (0, "T:\n1 2 3\nU:\n1 2 3\n")

    def test_trace_matches_worked_example(self, capsys):
        code, out, _ = run(capsys, "rsk", "21453", "--trace")
        assert code == 0
        assert out == (
            "step 0:\nT:\n(empty)\nU:\n(empty)\n"
            "\nstep 1:\nT:\n2\nU:\n1\n"
            "\nstep 2:\nT:\n1\n2\nU:\n1\n2\n"
            "\nstep 3:\nT:\n1 4\n2\nU:\n1 3\n2\n"
            "\nstep 4:\nT:\n1 4 5\n2\nU:\n1 3 4\n2\n"
            "\nstep 5:\nT:\n1 3 5\n2 4\nU:\n1 3 4\n2 5\n"
        )

    def test_invert(self, capsys):
        code, out, _ = run(capsys, "rsk", "--invert", "1,3,5/2,4", "1,3,4/2,5")
        assert (code, out) == (0, "21453\n")

    def test_invert_needs_two_arguments(self, capsys):
        code, _, err = run(capsys, "rsk", "--invert", "1,2")
        assert code == 1 and "error" in err

    def test_whitespace_inside_an_entry_is_an_error(self, capsys):
        # deleting the space would read "1 0" as 10, and "1 2" as 12 (then a shape error)
        assert run(capsys, "rsk", "1,2,3,4,5,6,7,8,9,1 0") == (
            1, "", "error: bad one-line notation: '1,2,3,4,5,6,7,8,9,1 0'\n")
        assert run(capsys, "rsk", "--invert", "1 2/3", "1,3/2") == (
            1, "", "error: bad row string '1 2/3'; expected e.g. 1,3,5/2,4\n")
        assert run(capsys, "rsk", "--invert", "1,2/3", "1,3/ 2 4")[:2] == (1, "")

    def test_whitespace_around_entries_is_ignored(self, capsys):
        worked = run(capsys, "rsk", "21453")
        assert run(capsys, "rsk", " 2, 1 ,4,\t5 , 3 ") == worked
        assert run(capsys, "rsk", "2 1 4 5 3") == worked  # glued digits, one entry each
        assert run(capsys, "rsk", "--invert", " 1 , 3 , 5 / 2 , 4 ", "1,3,4 /2,5") == (0, "21453\n", "")

    def test_trace_json_raw_text(self, capsys):
        assert run(capsys, "rsk", "21", "--trace", "--json") == (0, (
            '{"command": "rsk", "inputs": {"permutation": [2, 1]}, "trace": ['
            '{"insertion": {"rows": []}, "recording": {"rows": []}}, '
            '{"insertion": {"rows": [[2]]}, "recording": {"rows": [[1]]}}, '
            '{"insertion": {"rows": [[1], [2]]}, "recording": {"rows": [[1], [2]]}}], '
            '"result": {"insertion": {"rows": [[1], [2]]}, "recording": {"rows": [[1], [2]]}}}\n'
        ), "")

    def test_trace_guard(self, capsys):
        perm = ",".join(map(str, range(1, 1002)))
        code, out, err = run(capsys, "rsk", perm, "--trace")
        assert (code, out) == (1, "")
        assert err == "error: rsk asks for 1001 boxes; guard is 1000 (see --max-boxes)\n"
        code, out, err = run(capsys, "rsk", perm, "--trace", "--max-boxes", "1001")
        assert (code, err) == (0, "")
        line = perm.replace(",", " ")
        assert out.count("step ") == 1002
        assert out.endswith(f"T:\n{line}\nU:\n{line}\n")

    def test_guard_leaves_plain_and_inverse_unbounded(self, capsys):
        row = ",".join(map(str, range(1, 5001)))
        code, out, err = run(capsys, "rsk", row)
        assert (code, err) == (0, "")
        line = row.replace(",", " ")
        assert out == f"T:\n{line}\nU:\n{line}\n"
        code, out, err = run(capsys, "rsk", "--invert", row, row)
        assert (code, out, err) == (0, row + "\n", "")
        code, out, err = outcome(["rsk", "--invert", "--trace", row, row])
        assert (code, out) == (2, "") and err.startswith("usage: ")
        assert err.endswith("error: argument --trace: not allowed with argument --invert\n")

    def test_invert_pins_the_error_line_of_each_malformed_pair(self, capsys):
        cases = {
            ("1,2/3", "1,2,3"): "need two straight tableaux of equal shape",
            ("1,1/2", "1,1/2"): "both tableaux must be standard",
            ("2,1/3", "1,2/3"): "both tableaux must be standard",
            ("1,3/2", "1,2/4"): "both tableaux must be standard",
            ("1,2/0", "1,2/3"): "entry must be at least 1, got 0",
            ("1,2/", "1,2"): "expected 1 rows for [2], got 2",
            ("1,+2", "1,2"): "bad row string '1,+2'; expected e.g. 1,3,5/2,4",
            ("1,2", "1,2", "1"): "--invert needs exactly two row strings: T U",
        }
        for items, message in cases.items():
            assert run(capsys, "rsk", "--invert", *items) == (1, "", f"error: {message}\n"), items

    def test_entries_must_be_ascii_digits(self, capsys):
        # int() reads every one of these entries
        cases = {
            ("rsk", "1_0,2,3,4,5,6,7,8,9,1"): "bad one-line notation: '1_0,2,3,4,5,6,7,8,9,1'",
            ("rsk", "٢١"): "bad one-line notation: '٢١'",
            ("rsk", "--invert", "+1,2", "1,2"): "bad row string '+1,2'; expected e.g. 1,3,5/2,4",
            ("bk", "1,+2", "1"): "bad row string '1,+2'; expected e.g. 1,3,5/2,4",
            ("count-syt", "[2_1]"): "expected comma-separated integers, got '[2_1]'",
            ("count-syt", "[٣]"): "expected comma-separated integers, got '[٣]'",
        }
        for argv, message in cases.items():
            assert run(capsys, *argv) == (1, "", f"error: {message}\n"), argv

    @pytest.mark.parametrize("argv", [
        ["rsk", "21453"],
        ["rsk", "--invert", "1,3,5/2,4", "1,3,4/2,5"],
        ["rsk", "21453", "--trace"],
    ])
    def test_each_mode_builds_only_the_printed_form(self, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("built a form that main does not print")

        text, as_json = run(capsys, *argv), run(capsys, *argv, "--json")
        with monkeypatch.context() as patch:
            patch.setattr(tableaux.cli, "_filling_payload", refuse)
            assert run(capsys, *argv) == text
        with monkeypatch.context() as patch:
            patch.setattr(Filling, "to_ascii", refuse)
            assert run(capsys, *argv, "--json") == as_json

    def test_output_is_pinned(self, capsys):
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
                code, out, _ = run(capsys, *argv, *flags)
                assert code == 0
                assert hashlib.sha256(out.encode()).hexdigest() == digest, (argv[:2], flags)

    def test_json(self, capsys):
        _, out, _ = run(capsys, "rsk", "21453", "--json")
        payload = json.loads(out)
        assert payload["inputs"] == {"permutation": [2, 1, 4, 5, 3]}
        assert payload["result"] == {
            "insertion": {"rows": [[1, 3, 5], [2, 4]]},
            "recording": {"rows": [[1, 3, 4], [2, 5]]},
        }


class TestBenderKnuthCommand:
    def test_single_step(self, capsys):
        assert run(capsys, "bk", "1,1/2", "1")[:2] == (0, "1 2\n2\n")

    def test_skew_input(self, capsys):
        code, out, _ = run(capsys, "bk", "1/1/2", "1", "--inner", "[2,1]")
        assert code == 0

    def test_rejects_non_semistandard(self, capsys):
        code, _, err = run(capsys, "bk", "2,1/1", "1")
        assert code == 1 and "error" in err

    def test_whitespace_inside_an_entry_is_an_error(self, capsys):
        assert run(capsys, "bk", "1 1/2", "1") == (
            1, "", "error: bad row string '1 1/2'; expected e.g. 1,3,5/2,4\n")
        assert run(capsys, "bk", " 1 , 1 / 2 ", "1")[:2] == (0, "1 2\n2\n")

    def test_no_boxes_inside_inner_shape(self, capsys):
        # "" is one row of no boxes when the inner shape has one row
        assert run(capsys, "bk", "", "1", "--inner", "[2]")[:2] == (0, ". .\n")
        assert run(capsys, "bk", "/", "1", "--inner", "[2,1]")[:2] == (0, ". .\n.\n")

    def test_json(self, capsys):
        _, out, _ = run(capsys, "bk", "1,1/2", "1", "--json")
        payload = json.loads(out)
        assert payload["result"] == {"rows": [[1, 2], [2]]}
        assert payload["inputs"]["index"] == 1


# Each positional of each subcommand, and --inner, given a value that cannot be read: its one error line.
MALFORMED = {
    ("count-syt", "[2,a]"): "expected comma-separated integers, got '[2,a]'",
    ("list-syt", "2,1"): "expected bracketed parts like [4,2,1], got '2,1'",
    ("list-ssyt", "[2,1", "3"): "expected bracketed parts like [4,2,1], got '[2,1'",
    ("list-ssyt", "[2,1]", "x"): "expected an integer, got 'x'",
    ("list-ssyt", "[2,1]", "3", "--inner", "[1,2]"): "[1, 2] is not weakly decreasing after zero removal",
    ("list-ssyt", "[2,1]", "3", "--inner", "[3]"): "[3] is not contained in [2,1]",
    ("schur", "[1 1]", "3"): "expected comma-separated integers, got '[1 1]'",
    ("schur", "[2,1]", "3.0"): "expected an integer, got '3.0'",
    ("lr", "[x]", "[1]", "[2]"): "expected comma-separated integers, got '[x]'",
    ("lr", "[1]", "[-1]", "[2]"): "part must be nonnegative, got -1",
    ("lr", "[1]", "[1]", "[2,,]"): "expected comma-separated integers, got '[2,,]'",
    ("expand", "", "[1]"): "expected bracketed parts like [4,2,1], got ''",
    ("expand", "[1]", "[٢]"): "expected comma-separated integers, got '[٢]'",
    ("rsk", "2145"): "[2, 1, 4, 5] is not a permutation of 1..4",
    ("rsk", "1_0,2", "--trace"): "bad one-line notation: '1_0,2'",
    ("rsk", "21", "12"): "expected exactly one permutation argument",
    ("rsk", "--invert", "1,2/x", "1,2/3"): "bad row string '1,2/x'; expected e.g. 1,3,5/2,4",
    ("rsk", "--invert", "1,2/3", "1;2/3"): "bad row string '1;2/3'; expected e.g. 1,3,5/2,4",
    ("bk", "1,a", "1"): "bad row string '1,a'; expected e.g. 1,3,5/2,4",
    ("bk", "1,1/2", "one"): "expected an integer, got 'one'",
    ("bk", "1/2", "1", "--inner", "[x]"): "expected comma-separated integers, got '[x]'",
    # int() reads each of these four: an integer argument is ASCII digits after a minus sign at most
    ("schur", "[2,1]", "1_0"): "expected an integer, got '1_0'",
    ("schur", "[2,1]", "+3"): "expected an integer, got '+3'",
    ("list-ssyt", "[1]", "٣"): "expected an integer, got '٣'",
    ("bk", "1,1/2", "+1"): "expected an integer, got '+1'",
}

# A missing or extra positional, an unknown option, or two options that exclude each other:
# argparse's usage error, before any value is read.
FORM_ERRORS = [
    ["count-syt"], ["count-syt", "[1]", "[2]"], ["count-syt", "[1]", "--bogus"], ["list-syt"],
    ["list-ssyt", "[1]"], ["schur", "[1]"], ["lr", "[1]", "[1]"], ["expand", "[1]"], ["rsk"],
    ["rsk", "21", "--invrt"], ["rsk", "--invert", "--trace", "1,3/2", "1,2/3"], ["bk", "1"], ["bk", "1", "1", "1"], ["frobnicate", "[1]"],
]


class TestArgumentContract:
    @pytest.mark.parametrize("argv", list(MALFORMED), ids=" ".join)
    def test_an_unreadable_value_is_one_error_line(self, argv):
        assert outcome(argv) == (1, "", f"error: {MALFORMED[argv]}\n")

    @pytest.mark.parametrize("argv", FORM_ERRORS, ids=" ".join)
    def test_a_form_error_is_a_usage_error(self, argv):
        code, out, err = outcome(argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: ") and "Traceback" not in err

    def test_every_subcommand_has_a_malformed_value_in_the_table(self):
        (commands,) = [action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        assert {argv[0] for argv in MALFORMED} == set(commands)

    def test_max_boxes_is_ascii_digits_too(self):
        code, out, err = outcome(["count-syt", "[2,1]", "--max-boxes", "1_0"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: ") and "--max-boxes: invalid int value: '1_0'" in err
        # whitespace around the digits, and leading zeros, are read as int reads them
        assert outcome(["schur", "[2,1]", " 3 "]) == outcome(["schur", "[2,1]", "03"]) == (
            0, SCHUR_21_IN_THREE_VARS + "\n", "")


class TestGlobalBehavior:
    def test_json_flag_position_flexible(self, capsys):
        before = run(capsys, "--json", "count-syt", "[2,1]")
        after = run(capsys, "count-syt", "[2,1]", "--json")
        assert before == after

    def test_outputs_are_deterministic(self, capsys):
        first = run(capsys, "expand", "[2,1]", "[2,1]", "--json")
        second = run(capsys, "expand", "[2,1]", "[2,1]", "--json")
        assert first == second

    def test_missing_subcommand_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code != 0

    def test_errors_go_to_stderr_not_stdout(self, capsys):
        code, out, err = run(capsys, "schur", "[21]", "2")
        assert code == 1
        assert out == ""
        assert err != ""

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


def _word(strategy):
    return strategy.map(lambda arg: [arg])


def _maybe(*args):
    return st.sampled_from([[], list(args)])


def _argv(*chunks):
    return st.tuples(*chunks).map(lambda parts: [arg for part in parts for arg in part])


# A few values no reader accepts, drawn now and then among the valid ones
BAD_SHAPES = ["", "[", "2,1", "[2_1]", "[٣]", "[1,2]", "[-1]", "[a]", "[2 1]"]
BAD_INTS = ["", "x", "1_0", "+3", "٣", "2.0", "-1"]
SHAPE = _word(st.sampled_from([format_partition(p) for n in range(9) for p in partitions_of(n)] + BAD_SHAPES))
FACTOR = _word(st.sampled_from([format_partition(p) for n in range(5) for p in partitions_of(n)] + BAD_SHAPES))
BOUND = _word(st.sampled_from([str(n) for n in range(5)] * 4 + BAD_INTS))
INNER = st.one_of(st.just([]), SHAPE.map(lambda shape: ["--inner", *shape]))
ROWS = _word(st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=3), max_size=3).map(
    lambda rows: "/".join(",".join(map(str, row)) for row in rows)
))
PERMUTATION = _word(
    st.integers(0, 8).flatmap(lambda n: st.permutations(range(1, n + 1))).map(
        lambda perm: "".join(map(str, perm))
    )
    | st.text("0123456789,", max_size=6)
)
# Every subcommand with its arity: shapes of at most 8 boxes (factors of at most 4, so
# products stay within 8), bounds at most 4, a malformed shape or bound now and then,
# filling rows mostly invalid.
SMALL_ARGV = _argv(
    st.one_of(
        _argv(st.just(["count-syt"]), SHAPE),
        _argv(st.just(["list-syt"]), SHAPE),
        _argv(st.just(["list-ssyt"]), SHAPE, BOUND, INNER),
        _argv(st.just(["schur"]), SHAPE, BOUND, _maybe("--list")),
        _argv(st.just(["lr"]), FACTOR, FACTOR, SHAPE, _maybe("--witnesses"), _maybe("--verify")),
        _argv(st.just(["expand"]), FACTOR, FACTOR),
        _argv(st.just(["rsk"]), PERMUTATION, _maybe("--trace")),
        _argv(st.just(["rsk", "--invert"]), ROWS, ROWS),
        _argv(st.just(["bk"]), ROWS, BOUND, INNER),
    ),
    _maybe("--json"),
    st.one_of(st.just([]), st.integers(0, 8).map(lambda n: ["--max-boxes", str(n)])),
)


# The slowest example measured took 16 ms (lr [3,1] [2,1,1] [6,1,1] --witnesses --verify
# --json, cold schur_polynomial cache; 14549 argvs of the listing, lr --verify and expand
# families below timed one by one); 250 ms is over 15 times that.
@settings(max_examples=300, deadline=250)
@given(SMALL_ARGV)
def test_every_command_answers_or_fails_cleanly(argv):
    code, out, err = outcome(argv)
    assert code in (0, 1)
    if code == 1:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@st.composite
def fillings(draw):
    """A filling of a straight or skew shape, possibly of no boxes; entries need not be ordered."""
    outer = draw(st.sampled_from([p for n in range(1, 9) for p in partitions_of(n)]))
    inner = draw(st.sampled_from(
        [p for k in range(outer.size + 1) for p in partitions_of(k) if outer.contains(p)]
    ))
    skew = SkewShape(outer, inner)
    rows = [draw(st.lists(st.integers(1, 20), min_size=hi - lo, max_size=hi - lo))
            for lo, hi in map(skew.row_span, range(skew.nrows))]
    return Filling(skew, rows)


@given(fillings())
def test_rows_string_round_trip(filling):
    text = "/".join(",".join(map(str, row)) for row in filling.rows)
    inner = filling.shape.inner
    # a one-row filling of no boxes renders as "", which parses to no rows; from_rows infers that row
    assert Filling.from_rows(_parse_rows(text), inner) == filling
    if filling.is_semistandard():
        code, out = outcome(["bk", text, "1", "--inner", format_partition(inner)])[:2]
        assert code == 0 and out.rstrip("\n") == bender_knuth(filling, 1).to_ascii()
