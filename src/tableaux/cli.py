"""Command-line surface: every computation, with stable text and JSON output.

Results go to stdout, diagnostics to stderr, and every output is
byte-deterministic for fixed arguments so the commands can be scripted
and golden-tested.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .fillings import Filling, bender_knuth, enumerate_ssyt, enumerate_syt
from .littlewood_richardson import enumerate_lr_fillings, lr_coefficient
from .partitions import (
    EMPTY,
    GuardExceededError,
    Partition,
    SkewShape,
    count_standard_tableaux,
    format_partition,
    parse_partition,
)
from .polynomials import format_polynomial
from .rsk import RskPair, format_permutation, inverse_rsk, parse_permutation, rsk, rsk_trace
from .schur import schur_expand, schur_polynomial

ENUMERATION_GUARD = 20  # default box cap for enumeration-backed commands
COUNT_GUARD = 100  # default box cap for hook-length counting
EMPTY_MARK = "(empty)"


def _partition_arg(text: str) -> Partition:
    try:
        return parse_partition(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_rows(text: str) -> tuple[tuple[int, ...], ...]:
    """Rows separated by ``/``, entries by commas: ``1,3,5/2,4``."""
    compact = "".join(text.split())
    if not compact:
        return ()
    rows = []
    for chunk in compact.split("/"):
        try:
            rows.append(tuple(int(v) for v in chunk.split(",")) if chunk else ())
        except ValueError:
            raise ValueError(f"bad row string {text!r}; expected e.g. 1,3,5/2,4") from None
    return tuple(rows)


def _ascii_block(filling: Filling) -> str:
    return filling.to_ascii() or EMPTY_MARK


def _filling_payload(filling: Filling) -> dict:
    data: dict = {"rows": [list(row) for row in filling.rows]}
    if filling.shape.inner.parts:
        data["outer"] = list(filling.shape.outer.parts)
        data["inner"] = list(filling.shape.inner.parts)
    return data


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(text)


def _guard(args: argparse.Namespace, default: int) -> int:
    return args.max_boxes if args.max_boxes is not None else default


def _cmd_count_syt(args: argparse.Namespace) -> int:
    count = count_standard_tableaux(args.shape, max_size=_guard(args, COUNT_GUARD))
    payload = {
        "command": "count-syt",
        "inputs": {"shape": list(args.shape.parts)},
        "result": count,
    }
    _emit(args, payload, str(count))
    return 0


def _cmd_list_syt(args: argparse.Namespace) -> int:
    fillings = list(enumerate_syt(args.shape, max_boxes=_guard(args, ENUMERATION_GUARD)))
    payload = {
        "command": "list-syt",
        "inputs": {"shape": list(args.shape.parts)},
        "result": [_filling_payload(f) for f in fillings],
    }
    _emit(args, payload, "\n\n".join(_ascii_block(f) for f in fillings))
    return 0


def _cmd_list_ssyt(args: argparse.Namespace) -> int:
    shape = SkewShape(args.shape, args.inner)
    guard = _guard(args, ENUMERATION_GUARD)
    if shape.size > guard:
        raise GuardExceededError(f"{shape} has {shape.size} boxes; guard is {guard}")
    fillings = list(enumerate_ssyt(shape, args.bound))
    payload = {
        "command": "list-ssyt",
        "inputs": {
            "shape": list(args.shape.parts),
            "inner": list(args.inner.parts),
            "bound": args.bound,
        },
        "result": [_filling_payload(f) for f in fillings],
    }
    _emit(args, payload, "\n\n".join(_ascii_block(f) for f in fillings))
    return 0


def _cmd_schur(args: argparse.Namespace) -> int:
    guard = _guard(args, ENUMERATION_GUARD)
    if args.shape.size > guard:
        raise GuardExceededError(f"{args.shape} has {args.shape.size} boxes; guard is {guard}")
    payload: dict = {
        "command": "schur",
        "inputs": {"shape": list(args.shape.parts), "bound": args.bound},
    }
    if args.list_tableaux:
        fillings = list(enumerate_ssyt(args.shape, args.bound))
        payload["result"] = [_filling_payload(f) for f in fillings]
        _emit(args, payload, "\n\n".join(_ascii_block(f) for f in fillings))
    else:
        poly = schur_polynomial(args.shape, args.bound)
        payload["result"] = {
            "width": args.bound,
            "terms": [
                {"exponents": list(exps), "coefficient": coeff}
                for exps, coeff in poly.sorted_terms()
            ],
        }
        _emit(args, payload, format_polynomial(poly))
    return 0


def _product_expansion(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Schur expansion of ``s_lam * s_mu``, the product taken in l(lam) + l(mu) variables.

    That is min(|lam| + |mu|, l(lam) + l(mu)) and loses no coefficient:
    c^nu_{lam mu} != 0 forces l(nu) <= l(lam) + l(mu), and the expansion in
    w variables holds every nu of at most w rows.
    """
    width = lam.nrows + mu.nrows
    return schur_expand(schur_polynomial(lam, width) * schur_polynomial(mu, width))


def _cmd_lr(args: argparse.Namespace) -> int:
    lam, mu, nu = args.inner, args.content, args.outer
    payload: dict = {
        "command": "lr",
        "inputs": {
            "lambda": list(lam.parts),
            "mu": list(mu.parts),
            "nu": list(nu.parts),
        },
    }
    if args.witnesses:
        witnesses = list(enumerate_lr_fillings(nu, lam, mu))
        coeff = len(witnesses)
        payload["witnesses"] = [_filling_payload(w.filling) for w in witnesses]
    else:
        witnesses = []
        coeff = lr_coefficient(lam, mu, nu)
    payload["result"] = coeff
    head = str(coeff)
    if args.verify:
        expected = _product_expansion(lam, mu).get(nu, 0)
        if expected != coeff:
            print(
                f"error: rule gives {coeff} but the Schur expansion gives {expected} "
                f"for {nu}; this is an implementation bug",
                file=sys.stderr,
            )
            return 1
        payload["verified"] = True
        head = f"{coeff} (verified)"
    lines = [head]
    for witness in witnesses:
        lines.append("")
        lines.append(_ascii_block(witness.filling))
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    lam, mu = args.left, args.right
    total = lam.size + mu.size
    guard = _guard(args, ENUMERATION_GUARD)
    if total > guard:
        raise GuardExceededError(f"product has {total} boxes; guard is {guard}")
    items = list(_product_expansion(lam, mu).items())  # lex-descending, from schur_expand
    payload = {
        "command": "expand",
        "inputs": {"lambda": list(lam.parts), "mu": list(mu.parts)},
        "result": [
            {"partition": list(nu.parts), "coefficient": coeff} for nu, coeff in items
        ],
    }
    text = "\n".join(f"{format_partition(nu)}: {coeff}" for nu, coeff in items)
    _emit(args, payload, text)
    return 0


def _pair_block(insertion: Filling, recording: Filling) -> str:
    return f"T:\n{_ascii_block(insertion)}\nU:\n{_ascii_block(recording)}"


def _cmd_rsk(args: argparse.Namespace) -> int:
    if args.invert:
        if len(args.items) != 2:
            raise ValueError("--invert needs exactly two row strings: T U")
        insertion = Filling.from_rows(_parse_rows(args.items[0]))
        recording = Filling.from_rows(_parse_rows(args.items[1]))
        perm = inverse_rsk(RskPair(insertion, recording))
        payload = {
            "command": "rsk",
            "inputs": {
                "insertion": _filling_payload(insertion),
                "recording": _filling_payload(recording),
            },
            "result": list(perm.images),
        }
        _emit(args, payload, format_permutation(perm))
        return 0
    if len(args.items) != 1:
        raise ValueError("expected exactly one permutation argument")
    perm = parse_permutation(args.items[0])
    payload = {"command": "rsk", "inputs": {"permutation": list(perm.images)}}
    if args.trace:
        steps = rsk_trace(perm)
        payload["trace"] = [
            {"insertion": _filling_payload(t), "recording": _filling_payload(u)}
            for t, u in steps
        ]
        payload["result"] = payload["trace"][-1]
        text = "\n\n".join(
            f"step {k}:\n{_pair_block(t, u)}" for k, (t, u) in enumerate(steps)
        )
        _emit(args, payload, text)
    else:
        pair = rsk(perm)
        payload["result"] = {
            "insertion": _filling_payload(pair.insertion),
            "recording": _filling_payload(pair.recording),
        }
        _emit(args, payload, _pair_block(pair.insertion, pair.recording))
    return 0


def _cmd_bk(args: argparse.Namespace) -> int:
    filling = Filling.from_rows(_parse_rows(args.rows), args.inner)
    result = bender_knuth(filling, args.index)
    payload = {
        "command": "bk",
        "inputs": {
            "rows": [list(row) for row in filling.rows],
            "inner": list(args.inner.parts),
            "index": args.index,
        },
        "result": _filling_payload(result),
    }
    _emit(args, payload, _ascii_block(result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="emit one JSON object instead of text",
    )
    common.add_argument(
        "--max-boxes", type=int, default=argparse.SUPPRESS, metavar="N",
        help="override the per-command size guard",
    )

    parser = argparse.ArgumentParser(
        prog="tableaux",
        description="Young tableaux: counting, Schur polynomials, product expansion, insertion.",
    )
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--max-boxes", type=int, default=None, help=argparse.SUPPRESS, metavar="N")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "count-syt", parents=[common],
        help="number of standard tableaux of a shape (hook-length formula)",
    )
    p.add_argument("shape", type=_partition_arg, help="partition, e.g. [4,2,1]")
    p.set_defaults(handler=_cmd_count_syt)

    p = sub.add_parser("list-syt", parents=[common], help="all standard tableaux of a shape")
    p.add_argument("shape", type=_partition_arg)
    p.set_defaults(handler=_cmd_list_syt)

    p = sub.add_parser(
        "list-ssyt", parents=[common],
        help="all semistandard fillings with entries up to a bound",
    )
    p.add_argument("shape", type=_partition_arg)
    p.add_argument("bound", type=int, help="largest allowed entry")
    p.add_argument("--inner", type=_partition_arg, default=EMPTY, help="inner shape for skew")
    p.set_defaults(handler=_cmd_list_ssyt)

    p = sub.add_parser("schur", parents=[common], help="Schur polynomial of a shape")
    p.add_argument("shape", type=_partition_arg)
    p.add_argument("bound", type=int, help="number of variables")
    p.add_argument(
        "--list", dest="list_tableaux", action="store_true",
        help="print the contributing tableaux instead of the polynomial",
    )
    p.set_defaults(handler=_cmd_schur)

    p = sub.add_parser(
        "lr", parents=[common],
        help="Littlewood-Richardson coefficient for (lambda, mu, nu)",
    )
    p.add_argument("inner", type=_partition_arg, metavar="lambda")
    p.add_argument("content", type=_partition_arg, metavar="mu")
    p.add_argument("outer", type=_partition_arg, metavar="nu")
    p.add_argument("--witnesses", action="store_true", help="print each counted filling")
    p.add_argument(
        "--verify", action="store_true",
        help="cross-check against the Schur-basis expansion; nonzero exit on disagreement",
    )
    p.set_defaults(handler=_cmd_lr)

    p = sub.add_parser(
        "expand", parents=[common],
        help="expand a product of two Schur polynomials in the Schur basis",
    )
    p.add_argument("left", type=_partition_arg, metavar="lambda")
    p.add_argument("right", type=_partition_arg, metavar="mu")
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser(
        "rsk", parents=[common],
        help="insertion/recording tableau pair of a permutation",
    )
    p.add_argument(
        "items", nargs="+", metavar="PERM | T U",
        help="one-line permutation (21453), or two row strings with --invert",
    )
    p.add_argument("--trace", action="store_true", help="print every intermediate pair")
    p.add_argument("--invert", action="store_true", help="recover the permutation from a pair")
    p.set_defaults(handler=_cmd_rsk)

    p = sub.add_parser("bk", parents=[common], help="one weight-swapping involution step")
    p.add_argument("rows", help="filling rows, e.g. 1,1/2")
    p.add_argument("index", type=int, help="swap multiplicities of index and index+1")
    p.add_argument("--inner", type=_partition_arg, default=EMPTY, help="inner shape for skew")
    p.set_defaults(handler=_cmd_bk)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:  # all library errors derive from ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
