"""Command-line front end: apply operators, run sweeps, export graphs.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage or parse error, 3 I/O error, 4 internal error (any other exception).
argparse reads integers in the grammars' one syntax (parsing.INT); the library
refuses a rank, window, height bound or seed out of range, and its message is printed.
"""

from __future__ import annotations

import argparse
import json as jsonlib
import re
import sys

from .affine import (
    AffineModel,
    HLNode,
    HLWeight,
    format_hl_weight,
    parse_hl_weight,
)
from .exploration import explore
from .extended import ExtElement, format_ext_element, parse_ext_element
from .msegment import format_multisegment
from .parsing import INT
from .rootdata import check_rank
from .signature import reduce_runs
from .verify import SweepConfig, base_suite_names, run_all

OPS = ("F", "E", "Fstar", "Estar", "Fhl", "Ehl", "shift", "starflip", "gamma", "gammainv", "star")

_WINDOW_RE = re.compile(rf"({INT.pattern})\.\.({INT.pattern})")


def _int_type(text: str) -> int:
    if not INT.fullmatch(text.strip()):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise argparse.ArgumentTypeError("integer has too many digits") from None


def _window_type(text: str) -> tuple[int, int]:
    m = _WINDOW_RE.fullmatch(text.strip())
    if not m:
        raise argparse.ArgumentTypeError(f"expected a..b, got {text!r}")
    return _int_type(m.group(1)), _int_type(m.group(2))


def _merge_window_values(argv: list[str]) -> list[str]:
    """Join "--window -2..1" into one token so argparse accepts the dash."""
    out = []
    skip = False
    for pos, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[pos + 1] if pos + 1 < len(argv) else None
        if tok == "--window" and nxt is not None and _WINDOW_RE.fullmatch(nxt.strip()):
            out.append(f"--window={nxt}")
            skip = True
        else:
            out.append(tok)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extcrystal",
        description="Exact combinatorics of extended crystals over multisegments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_apply = sub.add_parser("apply", help="apply one operator to an element given as text")
    p_apply.add_argument("op", choices=OPS)
    p_apply.add_argument("target", help="element text; '' or '1' is the highest element")
    p_apply.add_argument("ints", nargs="*", type=_int_type, help="operator arguments (i k, or t)")
    p_apply.add_argument("--n", type=_int_type, required=True, help="rank")
    p_apply.add_argument("--format", choices=("text", "json"), default="text")
    p_apply.set_defaults(func=_cmd_apply)

    p_verify = sub.add_parser("verify", help="run a verification sweep")
    p_verify.add_argument("suite", choices=base_suite_names() + ("all",))
    p_verify.add_argument("--n", type=_int_type, required=True, help="rank")
    p_verify.add_argument("--window", type=_window_type, default=(-2, 2), help="slot window a..b")
    p_verify.add_argument("--ht", type=_int_type, default=4, help="height bound")
    p_verify.add_argument("--seed", type=_int_type, default=0)
    p_verify.add_argument("--jobs", type=_int_type, default=1, help="worker processes, at most one per CPU; below 1 runs serially")
    p_verify.set_defaults(func=_cmd_verify)

    p_graph = sub.add_parser("graph", help="explore the reachable graph from a seed element")
    p_graph.add_argument("seed", help="seed element text; '' or '1' is the highest element")
    p_graph.add_argument("--n", type=_int_type, required=True, help="rank")
    p_graph.add_argument("--window", type=_window_type, default=(-2, 2), help="slot window a..b")
    p_graph.add_argument("--ht", type=_int_type, default=4, help="height bound")
    p_graph.add_argument("--format", choices=("dot", "json", "text"), default="dot")
    p_graph.add_argument("--out", help="output path (default: stdout)")
    p_graph.set_defaults(func=_cmd_graph)

    p_demo = sub.add_parser("demo-n3", help="replay the rank-3 worked example")
    p_demo.set_defaults(func=_cmd_demo_n3)

    return parser


# ----------------------------------------------------------------------


def _cmd_apply(args: argparse.Namespace) -> int:
    model = AffineModel(args.n)
    ext = model.ext

    def element(text: str) -> ExtElement:
        return parse_ext_element(text, ext)

    def weight(text: str) -> HLWeight:
        lam = parse_hl_weight(text)
        model.to_extended(lam)  # refuses a node past the rank
        return lam

    # op -> (parser of the target, integer-argument count, operator, formatter)
    parse, count, operator, fmt = {
        "F": (element, 2, ext.lowering, format_ext_element),
        "E": (element, 2, ext.raising, format_ext_element),
        "Fstar": (element, 2, ext.star_lowering, format_ext_element),
        "Estar": (element, 2, ext.star_raising, format_ext_element),
        "Fhl": (weight, 2, model.lowering, format_hl_weight),
        "Ehl": (weight, 2, model.raising, format_hl_weight),
        "shift": (element, 1, ext.shift, format_ext_element),
        "starflip": (element, 0, ext.star_flip, format_ext_element),
        "gamma": (element, 0, model.to_weight, format_hl_weight),
        "gammainv": (weight, 0, model.to_extended, format_ext_element),
        "star": (model.crystal.parse, 0, model.crystal.star, format_multisegment),
    }[args.op]
    if len(args.ints) != count:
        raise ValueError(f"operator {args.op} takes {count} integer argument(s), got {len(args.ints)}")
    text = fmt(operator(parse(args.target), *args.ints))
    print(jsonlib.dumps({"result": text}) if args.format == "json" else text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    check_rank(args.n)
    cfg = SweepConfig(n=args.n, window=args.window, max_ht=args.ht, seed=args.seed, jobs=args.jobs)
    names = base_suite_names() if args.suite == "all" else (args.suite,)
    failed = False
    try:
        for name, size, violations in run_all(cfg, names):
            if violations:
                failed = True
                print(f"{name}: FAIL ({len(violations)} violation(s) over {size} items)")
                print(f"  first counterexample: {violations[0]}")
            else:
                print(f"{name}: PASS ({size} items)")
    except OSError:
        raise  # an I/O error, such as a closed stdout, exits 3
    except Exception as exc:
        # the input was refused above, so anything else a sweep raises is a fault of the program
        return _internal(exc)
    return 1 if failed else 0


def _cmd_graph(args: argparse.Namespace) -> int:
    model = AffineModel(args.n)
    seed = parse_ext_element(args.seed, model.ext)
    graph = explore(model.ext, seed, args.window, args.ht)
    payload = {"dot": graph.to_dot, "json": graph.to_json, "text": graph.to_text}[args.format]()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


# ----------------------------------------------------------------------
# the rank-3 worked example

_DEMO_WEIGHT = (
    "(3,-4),(1,-2),(3,-2),2*(2,-1),(2,1),(1,2),(2,3),2*(3,4),(2,5),(2,7)"
)

# (i, k), the frozen reduced table by position a_6..a_1, nodes removed/added
_DEMO_CASES = (
    ((1, 0), "++ . . . + .", HLNode(3, 4), None),
    ((1, -1), ". - ++ . . .", HLNode(2, -1), HLNode(1, -2)),
)


def _reduced_row(counts: list[int]) -> str:
    """Surviving signs per scan position of a dense word, top position first, '.' when empty."""
    # a minus is cancelled only from its left and a plus only from its right;
    # the suffixes keep their place, zeros before them, so each count keeps its sign
    cells = []
    for r in range(1, len(counts)):
        if r % 2 == 0:
            count = reduce_runs(counts[: r + 1])[0] - reduce_runs(counts[:r])[0]
        else:
            count = reduce_runs([0] * r + counts[r:])[1] - reduce_runs([0] * (r + 1) + counts[r + 1 :])[1]
        cells.append(("+" if r % 2 else "-") * count or ".")
    return " ".join(cells)


def _q_label(p: HLNode) -> str:
    return f"({p.i},(-q)^{p.a})"


def _cmd_demo_n3(_args: argparse.Namespace) -> int:
    model = AffineModel(3)
    lam = parse_hl_weight(_DEMO_WEIGHT)
    print("rank-3 worked example")
    print(f"lambda = {format_hl_weight(lam)}")
    coeffs = dict(lam)
    ok = True
    for (i, k), frozen_row, removed, added in _DEMO_CASES:
        nodes = model.signature_nodes(i, k)
        print(f"\noperator ({i},{k})")
        print("  position  node          sign  count")
        for t in range(len(nodes), 0, -1):
            p = nodes[t - 1]
            print(f"  a_{t}       {_q_label(p):<13} {'+-'[t % 2]}     {coeffs.get(p, 0)}")
        # the dense word: the zero minus above position 2n, then every position from 2n down
        row = _reduced_row([0, *(coeffs.get(p, 0) for p in reversed(nodes))])
        print(f"  reduced a_6..a_1: {row}")
        expect = HLWeight([*lam, (removed, -1), *([] if added is None else [(added, 1)])])
        got = model.lowering(lam, i, k)
        change = f"lambda - {removed}" + (f" + {added}" if added is not None else "")
        print(f"  lowering: {change}")
        print(f"  result: {format_hl_weight(got)}")
        case_ok = row == frozen_row and got == expect
        print(f"  check: {'PASS' if case_ok else 'FAIL'}")
        ok = ok and case_ok
    print(f"\noverall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_window_values(list(argv))
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if not code:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:  # ParseError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        return _internal(exc)


def _internal(exc: Exception) -> int:
    """Report an exception the program itself raised; its exit code is 4."""
    print(f"error: internal: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
    return 4


def main_exit() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_exit()
