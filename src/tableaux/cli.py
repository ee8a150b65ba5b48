"""Command-line surface: every computation, with stable text and JSON output.

Results go to stdout, diagnostics to stderr, and every output is
byte-deterministic for fixed arguments so the commands can be scripted
and golden-tested.

``main`` runs four stages: argparse reads the form (exit 2 and ``usage:`` on
error), ``_read`` turns each positional into its value once, then the guard and
the handler run on values only. An unreadable value, a guard refusal or a
library error exits 1 with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, Iterable, Sequence

from .fillings import Filling, bender_knuth, enumerate_ssyt, enumerate_syt
from .littlewood_richardson import enumerate_lr_fillings, lr_coefficient
from .partitions import (
    GuardExceededError,
    SkewShape,
    _ascii_ints,
    count_standard_tableaux,
    format_partition,
    parse_partition,
)
from .polynomials import format_polynomial
from .rsk import RskPair, format_permutation, inverse_rsk, parse_permutation, rsk, rsk_trace
from .schur import _product_expansion, schur_polynomial

EMPTY_MARK = "(empty)"


def _ascii_int(text: str) -> int:
    """One integer in the form of a partition's part: ASCII digits, after a minus sign at most."""
    values = _ascii_ints(text)
    if values is None or len(values) != 1:
        raise ValueError(f"expected an integer, got {text!r}")
    return values[0]


def _box_limit(text: str) -> int:
    try:
        limit = _ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if limit < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {limit}")
    return limit


def _parse_rows(text: str) -> tuple[tuple[int, ...], ...]:
    """Rows separated by ``/``, entries by commas: ``1,3,5/2,4``.

    Whitespace around entries, commas and ``/`` is ignored; whitespace
    inside an entry is an error, never a separator. Entries are ASCII
    digits, as in :func:`parse_partition`.
    """
    if not text.strip():
        return ()
    rows = tuple(_ascii_ints(chunk) if chunk.strip() else () for chunk in text.split("/"))
    if None in rows:
        raise ValueError(f"bad row string {text!r}; expected e.g. 1,3,5/2,4")
    return rows


def _ascii_block(filling: Filling) -> str:
    return filling.to_ascii() or EMPTY_MARK


def _filling_payload(filling: Filling) -> dict:
    data: dict = {"rows": [list(row) for row in filling.rows]}
    if filling.shape.inner.parts:
        data["outer"] = list(filling.shape.outer.parts)
        data["inner"] = list(filling.shape.inner.parts)
    return data


# A handler returns the JSON fields that follow "command", in output order, and the text form.
# A handler whose output can be large may leave empty the form that args.json does not select.
Output = tuple[dict, str]


def _listing(args: argparse.Namespace, inputs: dict, fillings: Iterable[Filling]) -> Output:
    # a listing can be long: build only the form main prints
    if args.json:
        return {"inputs": inputs, "result": [_filling_payload(f) for f in fillings]}, ""
    return {}, "\n\n".join(_ascii_block(f) for f in fillings)


def _cmd_count_syt(args: argparse.Namespace) -> Output:
    count = count_standard_tableaux(args.shape)
    return {"inputs": {"shape": list(args.shape.parts)}, "result": count}, str(count)


def _cmd_list_syt(args: argparse.Namespace) -> Output:
    return _listing(args, {"shape": list(args.shape.parts)}, enumerate_syt(args.shape))


def _cmd_list_ssyt(args: argparse.Namespace) -> Output:
    inputs = {"shape": list(args.shape.outer.parts), "inner": list(args.shape.inner.parts), "bound": args.bound}
    return _listing(args, inputs, enumerate_ssyt(args.shape, args.bound))


def _cmd_schur(args: argparse.Namespace) -> Output:
    inputs = {"shape": list(args.shape.parts), "bound": args.bound}
    if args.list_tableaux:
        return _listing(args, inputs, enumerate_ssyt(args.shape, args.bound))
    poly = schur_polynomial(args.shape, args.bound)
    if not args.json:  # a large shape has many terms: build only the form main prints
        return {}, format_polynomial(poly)
    terms = [{"exponents": list(exps), "coefficient": c} for exps, c in poly.sorted_terms()]
    return {"inputs": inputs, "result": {"width": args.bound, "terms": terms}}, ""


def _cmd_lr(args: argparse.Namespace) -> Output:
    lam, mu, nu = args.inner, args.content, args.outer
    inputs = {"lambda": list(lam.parts), "mu": list(mu.parts), "nu": list(nu.parts)}
    fields: dict = {"inputs": inputs}
    if args.witnesses:
        witnesses = list(enumerate_lr_fillings(nu, lam, mu))
        fields["witnesses"] = [_filling_payload(w) for w in witnesses]
        coeff = len(witnesses)
    else:
        witnesses, coeff = [], lr_coefficient(lam, mu, nu)
    fields["result"] = coeff
    head = str(coeff)
    if args.verify:
        expected = _product_expansion(lam, mu).get(nu, 0)
        if expected != coeff:
            raise ValueError(f"rule gives {coeff} but the Schur expansion gives {expected} "
                             f"for {nu}; this is an implementation bug")
        fields["verified"] = True
        head = f"{coeff} (verified)"
    return fields, "\n\n".join([head, *map(_ascii_block, witnesses)])


def _cmd_expand(args: argparse.Namespace) -> Output:
    lam, mu = args.left, args.right
    items = _product_expansion(lam, mu).items()
    fields = {
        "inputs": {"lambda": list(lam.parts), "mu": list(mu.parts)},
        "result": [{"partition": list(nu.parts), "coefficient": c} for nu, c in items],
    }
    return fields, "\n".join(f"{format_partition(nu)}: {c}" for nu, c in items)


def _pair_block(insertion: Filling, recording: Filling) -> str:
    return f"T:\n{_ascii_block(insertion)}\nU:\n{_ascii_block(recording)}"


def _pair_payload(insertion: Filling, recording: Filling) -> dict:
    return {"insertion": _filling_payload(insertion), "recording": _filling_payload(recording)}


def _cmd_rsk(args: argparse.Namespace) -> Output:
    # output grows with n, and as n² with --trace: build only the form main prints
    if args.invert:
        perm = inverse_rsk(args.pair)
        if not args.json:
            return {}, format_permutation(perm)
        return {"inputs": _pair_payload(args.pair.insertion, args.pair.recording), "result": list(perm.images)}, ""
    inputs = {"permutation": list(args.perm.images)}
    if not args.trace:
        pair = rsk(args.perm)
        if not args.json:
            return {}, _pair_block(pair.insertion, pair.recording)
        return {"inputs": inputs, "result": _pair_payload(pair.insertion, pair.recording)}, ""
    steps = rsk_trace(args.perm)
    if not args.json:
        return {}, "\n\n".join(f"step {k}:\n{_pair_block(t, u)}" for k, (t, u) in enumerate(steps))
    trace = [_pair_payload(t, u) for t, u in steps]
    return {"inputs": inputs, "trace": trace, "result": trace[-1]}, ""


def _cmd_bk(args: argparse.Namespace) -> Output:
    result = bender_knuth(args.filling, args.index)
    inputs = {
        "rows": [list(row) for row in args.filling.rows],
        "inner": list(args.filling.shape.inner.parts),
        "index": args.index,
    }
    return {"inputs": inputs, "result": _filling_payload(result)}, _ascii_block(result)


def _read(args: argparse.Namespace) -> None:
    """Replace the text of each positional, and of ``--inner``, by its value; ValueError if unreadable."""
    for dest in ("shape", "inner", "content", "outer", "left", "right"):
        if hasattr(args, dest):
            setattr(args, dest, parse_partition(getattr(args, dest)))
    for dest in ("bound", "index"):
        if hasattr(args, dest):
            setattr(args, dest, _ascii_int(getattr(args, dest)))
    if args.command == "list-ssyt":
        args.shape = SkewShape(args.shape, args.inner)
    elif args.command == "bk":
        args.filling = Filling.from_rows(_parse_rows(args.rows), args.inner)
    elif args.command == "rsk" and args.invert:
        if len(args.items) != 2:
            raise ValueError("--invert needs exactly two row strings: T U")
        args.pair = RskPair(*(Filling.from_rows(_parse_rows(item)) for item in args.items))
    elif args.command == "rsk":
        if len(args.items) != 1:
            raise ValueError("expected exactly one permutation argument")
        args.perm = parse_permutation(args.items[0])


# Subcommand -> (default box limit, boxes the request asks for, or None when unguarded).
# main checks the form (argparse), reads the values (_read), checks this guard on those
# values, then runs the handler; --max-boxes replaces the default. The library has no size policy.
GUARDS: dict[str, tuple[int, Callable[[argparse.Namespace], int | None]]] = {
    "count-syt": (100, lambda args: args.shape.size),
    "list-syt": (20, lambda args: args.shape.size),
    "list-ssyt": (20, lambda args: args.shape.size),
    "schur": (20, lambda args: args.shape.size),
    "expand": (20, lambda args: args.left.size + args.right.size),
    "lr": (20, lambda args: args.inner.size + args.content.size if args.verify else None),
    # a trace prints n + 1 pairs of up to n boxes each, so its output grows as n²
    "rsk": (1000, lambda args: args.perm.n if args.trace else None),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="emit one JSON object instead of text",
    )
    common.add_argument(
        "--max-boxes", type=_box_limit, default=argparse.SUPPRESS, metavar="N",
        help="override the per-command size guard",
    )

    parser = argparse.ArgumentParser(
        prog="tableaux",
        description="Young tableaux: counting, Schur polynomials, product expansion, insertion.",
    )
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--max-boxes", type=_box_limit, default=None, help=argparse.SUPPRESS, metavar="N"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "count-syt", parents=[common],
        help="number of standard tableaux of a shape (hook-length formula)",
    )
    p.add_argument("shape", help="partition, e.g. [4,2,1]")
    p.set_defaults(handler=_cmd_count_syt)

    p = sub.add_parser("list-syt", parents=[common], help="all standard tableaux of a shape")
    p.add_argument("shape")
    p.set_defaults(handler=_cmd_list_syt)

    p = sub.add_parser(
        "list-ssyt", parents=[common],
        help="all semistandard fillings with entries up to a bound",
    )
    p.add_argument("shape")
    p.add_argument("bound", help="largest allowed entry")
    p.add_argument("--inner", default="[]", help="inner shape for skew")
    p.set_defaults(handler=_cmd_list_ssyt)

    p = sub.add_parser("schur", parents=[common], help="Schur polynomial of a shape")
    p.add_argument("shape")
    p.add_argument("bound", help="number of variables")
    p.add_argument(
        "--list", dest="list_tableaux", action="store_true",
        help="print the contributing tableaux instead of the polynomial",
    )
    p.set_defaults(handler=_cmd_schur)

    p = sub.add_parser(
        "lr", parents=[common],
        help="Littlewood-Richardson coefficient for (lambda, mu, nu)",
    )
    p.add_argument("inner", metavar="lambda")
    p.add_argument("content", metavar="mu")
    p.add_argument("outer", metavar="nu")
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
    p.add_argument("left", metavar="lambda")
    p.add_argument("right", metavar="mu")
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser(
        "rsk", parents=[common],
        help="insertion/recording tableau pair of a permutation",
    )
    p.add_argument(
        "items", nargs="+", metavar="PERM | T U",
        help="one-line permutation (21453), or two row strings with --invert",
    )
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true", help="print every intermediate pair")
    mode.add_argument("--invert", action="store_true", help="recover the permutation from a pair")
    p.set_defaults(handler=_cmd_rsk)

    p = sub.add_parser("bk", parents=[common], help="one weight-swapping involution step")
    p.add_argument("rows", help="filling rows, e.g. 1,1/2")
    p.add_argument("index", help="swap multiplicities of index and index+1")
    p.add_argument("--inner", default="[]", help="inner shape for skew")
    p.set_defaults(handler=_cmd_bk)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call to main, not at import, and only read after that. Every
    # default is immutable ("[]", False, None, SUPPRESS), so no parse leaks into the next.
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _read(args)
        if args.command in GUARDS:
            default, boxes_of = GUARDS[args.command]
            limit = default if args.max_boxes is None else args.max_boxes
            boxes = boxes_of(args)
            if boxes is not None and boxes > limit:
                raise GuardExceededError(
                    f"{args.command} asks for {boxes} boxes; guard is {limit} (see --max-boxes)"
                )
        fields, text = args.handler(args)
    except ValueError as exc:  # all library errors derive from ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(json.dumps({"command": args.command, **fields}) if args.json else text, flush=True)
    except BrokenPipeError:  # the reader left early, as `| head` does
        # stdout's buffer still holds the rest; send it to devnull so the flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0
