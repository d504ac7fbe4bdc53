"""Command-line driver.

    sepent --input problem.sep [--expect valid] [--oracle-check] ...

The first output line is the verdict token, VALID or INVALID; with
--oracle-check the next line is ORACLE-AGREES or ORACLE-DISAGREES.  Detail
after that is for humans and suppressed by --quiet.  Exit codes: 0 verdict
produced (and matching --expect if given), 1 verdict mismatch, 2 a bad option
(such as a node budget below 1, a negative oracle bound, or --proof-out
with a directory), unreadable input, parse or well-formedness error, or
unwritable --proof-out, 3 node budget exceeded or memory exhausted, 4 oracle
disagreement.

--input may name a directory: every *.sep and *.smt2 under it is checked
against its own expectation annotation (or --expect as a fallback), files
using constructs outside the supported subset are reported and skipped,
and the run fails with exit 1 on any mismatch.  --proof-out takes a
single problem file; with a directory it is refused with exit 2.

A process that calls `run_cli` many times builds the argument parser
once, on the first call, and reuses it; each call gets its own namespace,
so nothing carries over between calls.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Optional

from .engine import DEFAULT_NODE_BUDGET, ResourceLimit, Verdict, prove
from .export import export_proof
from .oracle import Bound, confirm_countermodel, oracle_entails
from .parser import ProblemFile, parse_native
from .slcomp import RoleAnnotationMissing, UnsupportedConstruct, parse_slcomp


def _at_least(least: int):
    """An argument type for integers no smaller than `least`."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n

    return parse


@functools.lru_cache(maxsize=1)
def _arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sepent",
        description="Cyclic-proof entailment checker for symbolic heaps "
        "with compositional inductive predicates.",
    )
    p.add_argument("--input", required=True, help="problem file or directory")
    p.add_argument(
        "--format",
        choices=("native", "slcomp"),
        help="input format; default: slcomp for .smt2, native otherwise",
    )
    p.add_argument("--proof-out", help="write the proof tree to this file")
    p.add_argument(
        "--proof-format", choices=("text", "dot"), default="text"
    )
    p.add_argument(
        "--oracle-check",
        action="store_true",
        help="confirm the verdict against the bounded model enumerator",
    )
    p.add_argument("--oracle-depth", type=_at_least(0), default=4, metavar="N")
    p.add_argument("--oracle-locs", type=_at_least(0), default=6, metavar="N")
    p.add_argument(
        "--node-budget", type=_at_least(1), default=DEFAULT_NODE_BUDGET, metavar="N"
    )
    p.add_argument("--expect", choices=("valid", "invalid"))
    p.add_argument("--quiet", action="store_true")
    return p


def _parse_file(path: Path, fmt: Optional[str]) -> ProblemFile:
    if fmt is None:
        fmt = "slcomp" if path.suffix == ".smt2" else "native"
    text = path.read_text(encoding="utf-8-sig")  # a byte-order mark is dropped
    return parse_slcomp(text) if fmt == "slcomp" else parse_native(text)


def _reason(e: Exception) -> str:
    """One line for an input that cannot be read or checked."""
    if isinstance(e, FileNotFoundError):
        return "no such file"
    if isinstance(e, MemoryError):
        return "out of memory"
    if isinstance(e, OSError):
        return e.strerror or type(e).__name__
    return str(e)


def _oracle_agrees(
    pf: ProblemFile, verdict: Verdict, bound: Bound
) -> tuple[bool, Optional[object]]:
    """Verdict-level agreement, plus confirmation of an engine witness.
    Returns (agrees, oracle countermodel if one was found)."""
    report = oracle_entails(pf.query, pf.registry, bound)
    if verdict.valid != report.bounded_valid:
        return False, report.counter
    if verdict.counter is not None and not confirm_countermodel(
        verdict.counter, pf.query, pf.registry, bound
    ):
        return False, report.counter
    return True, report.counter


def _check_one(pf: ProblemFile, args: argparse.Namespace, out) -> int:
    verdict = prove(pf.query, pf.registry, node_budget=args.node_budget)
    print("VALID" if verdict.valid else "INVALID", file=out)

    code = 0
    oracle_counter = None
    if args.oracle_check:
        bound = Bound(max_unfold=args.oracle_depth, max_locs=args.oracle_locs)
        agrees, oracle_counter = _oracle_agrees(pf, verdict, bound)
        print("ORACLE-AGREES" if agrees else "ORACLE-DISAGREES", file=out)
        if not agrees:
            code = 4

    if not args.quiet:
        tree = verdict.tree
        if verdict.valid:
            print(
                f"proof: {len(tree.nodes)} nodes,"
                f" {sum(1 for _ in tree.edges())} edges,"
                f" {len(tree.backlinks())} backlinks",
                file=out,
            )
        else:
            stuck = tree.node(verdict.node)
            print(f"stuck at e{stuck.id} (case {verdict.case}): {stuck.ent}", file=out)
            model = verdict.counter
            label = "countermodel:"
            if model is None and oracle_counter is not None:
                model, label = oracle_counter, "countermodel (oracle):"
            if model is not None:
                print(label, file=out)
                print(model.pretty(pf.registry), file=out)

    if args.proof_out:
        text = export_proof(verdict.tree, args.proof_format)
        try:
            Path(args.proof_out).write_text(text, encoding="utf-8")
        except OSError as e:
            print(f"sepent: {args.proof_out}: {_reason(e)}", file=sys.stderr)
            return 2

    expect = args.expect or pf.expect
    if expect is not None and (expect == "valid") != verdict.valid:
        if not args.quiet:
            print(f"expected {expect}", file=out)
        code = code or 1
    return code


def _check_dir(root: Path, args: argparse.Namespace, out) -> int:
    files = sorted(
        p for p in root.rglob("*") if p.suffix in (".sep", ".smt2")
    )
    mismatches = errors = 0
    bound = Bound(max_unfold=args.oracle_depth, max_locs=args.oracle_locs)
    for path in files:
        name = path.relative_to(root)
        try:
            pf = _parse_file(path, args.format)
            verdict = prove(pf.query, pf.registry, node_budget=args.node_budget)
            agrees = not args.oracle_check or _oracle_agrees(pf, verdict, bound)[0]
        except (UnsupportedConstruct, RoleAnnotationMissing) as e:
            print(f"{name}: SKIPPED ({e})", file=out)
            continue
        except (OSError, ValueError, ResourceLimit, MemoryError) as e:
            # unreadable files, parse errors and prover rejections (outside
            # the fragment, node budget, memory, oracle limits)
            print(f"{name}: ERROR ({_reason(e)})", file=out)
            errors += 1
            continue
        got = "valid" if verdict.valid else "invalid"
        expect = pf.expect or args.expect
        if not agrees:
            print(f"{name}: {got.upper()} ORACLE-DISAGREES", file=out)
            return 4
        if expect is None:
            print(f"{name}: {got.upper()}", file=out)
        elif expect == got:
            print(f"{name}: {got.upper()} (expected {expect})", file=out)
        else:
            print(f"{name}: {got.upper()} MISMATCH (expected {expect})", file=out)
            mismatches += 1
    print(
        f"checked {len(files)} files: {mismatches} mismatches, {errors} errors",
        file=out,
    )
    if errors:
        return 2
    return 1 if mismatches else 0


def run_cli(argv: Optional[list[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _arg_parser().parse_args(argv)
    path = Path(args.input)
    if path.is_dir():
        if args.proof_out:
            print(
                f"sepent: {path}: --proof-out needs a single problem file",
                file=sys.stderr,
            )
            return 2
        return _check_dir(path, args, out)
    try:
        pf = _parse_file(path, args.format)
    except (OSError, ValueError) as e:
        print(f"sepent: {path}: {_reason(e)}", file=sys.stderr)
        return 2
    try:
        return _check_one(pf, args, out)
    except ValueError as e:
        # inputs outside the decidable fragment surface here
        print(f"sepent: {path}: {e}", file=sys.stderr)
        return 2
    except ResourceLimit as e:
        print(f"sepent: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        print(f"sepent: {path}: {_reason(e)}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
