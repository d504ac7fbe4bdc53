#!/usr/bin/env python3
"""sepent benchmark: end-to-end and per-layer figures for three workloads.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 40 --trace 0

Workloads (see README.md for why each was chosen):
  chain         prove() and a text export of chain_sequent(n), n = 6..16
  suite-oracle  the 40 hand-labelled suite cases, proved and then checked
                by the bounded oracle the way --oracle-check does it
  batch         one in-process CLI call per file over a seeded corpus

One process, no threads, a closed loop with one client.  A run repeats
whole rounds until the next round would pass --seconds.  Each round starts
from a fresh import of sepent, so module-level caches start empty as they
do when a user runs `sepent`; the import and the inputs the round needs
are its set-up.  Outputs are checked against references outside the timed
region.  The last line of standard output is one JSON object; with
--trace 1 the metrics are the per-layer ones from traced rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import typing
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import corpus  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

# Faults in the program that the fixed part of the batch corpus exposes:
# the freshness assert in engine._expand and the OracleError escaping
# countermodel lifting.  Any other failure makes the run incorrect.
KNOWN_FAULTS = frozenset({"AssertionError", "OracleError"})

# Percentiles considered for op_tail_ms, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def fresh_sepent() -> SimpleNamespace:
    """Import sepent anew, so no state survives from the previous round."""
    for name in [n for n in sys.modules if n == "sepent" or n.startswith("sepent.")]:
        del sys.modules[name]
    # typing caches Union[...] of the old classes, which would keep the old
    # modules and their caches alive; CPython's test runner clears them so.
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    mods = SimpleNamespace(
        **{
            n: importlib.import_module(f"sepent.{n}")
            for n in ("cli", "engine", "export", "oracle", "parser", "pure", "slcomp")
        }
    )
    if not Path(mods.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"sepent imported from {mods.cli.__file__}, not {ROOT / 'src'}")
    return mods


class Op:
    """One timed operation: `key` names the problem across rounds, `size`
    is what time_exponent regresses on, `run` is what gets timed."""

    def __init__(self, key, size, run, ref=None):
        self.key, self.size, self.run, self.ref = key, size, run, ref


# -------------------------------------------------------------- workloads


class Chain:
    """prove() then a text export on chain_sequent(n); all are valid."""

    def __init__(self, seed: int):
        # A fixed family in rising order: the seed changes nothing here.
        self.order = corpus.chain_sequents()
        self.text = corpus.native_corpus()

    def build(self, m) -> list[Op]:
        ops = []
        for n, seq in self.order:
            pf = m.parser.parse_native(self.text + f"\ncheck {seq}\n")

            def run(pf=pf):
                v = m.engine.prove(pf.query, pf.registry)
                return v, m.export.export_proof(v.tree, "text")

            ops.append(Op(f"n={n}", n, run, pf))
        return ops

    def check(self, m, op: Op, out) -> str | None:
        v, text = out
        if not v.valid:
            return "wrong_verdict"
        if m.engine.check_cyclic_soundness(v.tree, op.ref.registry):
            return "unsound_proof"
        if text.count("\n") != len(v.tree.nodes):
            return "bad_export"
        return None


class SuiteOracle:
    """The 40 suite cases: prove(), oracle_entails at Bound(4, 6), and
    confirm_countermodel on every engine countermodel."""

    def __init__(self, seed: int):
        # A fixed set in its listed order: the seed changes nothing here.
        self.cases = corpus.suite_cases()
        self.text = corpus.native_corpus()

    def build(self, m) -> list[Op]:
        bound = m.oracle.Bound(4, 6)
        ops = []
        for name, seq, valid in self.cases:
            pf = m.parser.parse_native(self.text + f"\ncheck {seq}\n")

            def run(pf=pf):
                v = m.engine.prove(pf.query, pf.registry)
                report = m.oracle.oracle_entails(pf.query, pf.registry, bound)
                confirmed = None
                if v.counter is not None:
                    confirmed = m.oracle.confirm_countermodel(
                        v.counter, pf.query, pf.registry, bound
                    )
                return v, report, confirmed

            ops.append(Op(name, len(seq), run, (pf, valid)))
        return ops

    def check(self, m, op: Op, out) -> str | None:
        v, report, confirmed = out
        pf, valid = op.ref
        if v.valid != valid or report.bounded_valid != valid:
            return "wrong_verdict"
        if v.valid and m.engine.check_cyclic_soundness(v.tree, pf.registry):
            return "unsound_proof"
        if confirmed is False:
            return "unconfirmed_countermodel"
        return None


class Batch:
    """One run_cli(["--input", file]) per file of a seeded corpus."""

    # Oracle bound for generated inputs: cheap enough to check a few hundred
    # entailments per run, and it agreed with every engine verdict on the
    # anchored corpora of seeds 0..39.
    REF_BOUND = dict(max_unfold=3, max_locs=3, data_min=-1, data_max=3)

    def __init__(self, seed: int):
        self.seed = seed
        self.problems = None
        self.refs = None

    def build(self, m) -> list[Op]:
        if self.problems is None:
            # Written once per run: the files are the same in every round,
            # and rewriting them would time the file system, not sepent.
            text = corpus.native_corpus()
            reg = m.parser.parse_native(text + "\ncheck emp |- emp\n").registry
            self.problems = corpus.batch_problems(corpus.signatures(text, reg), self.seed)
            shutil.rmtree(WORK, ignore_errors=True)
            self.paths = corpus.write_batch(self.problems, WORK)
        ops = []
        for p, path in zip(self.problems, self.paths):

            def run(path=str(path)):
                out, err = io.StringIO(), io.StringIO()
                try:
                    with contextlib.redirect_stderr(err):
                        code = m.cli.run_cli(["--input", path], out=out)
                except Exception as e:  # a fault escaping the CLI is a result here
                    return None, type(e).__name__
                first = out.getvalue().split("\n", 1)[0]
                return code, first if first in ("VALID", "INVALID") else None

            ops.append(Op(p.name, len(p.text.encode("utf-8")), run))
        return ops

    def check(self, m, op: Op, out) -> str | None:
        """Compare the CLI's result with the problem's reference.  Generated
        problems are also proved directly, once per run, so their proofs
        and countermodels can be re-checked."""
        if self.refs is None:
            bound = m.oracle.Bound(**self.REF_BOUND)
            self.refs = {p.name: self._reference(m, p, bound) for p in self.problems}
        code, verdict = out
        return _batch_failure(code, verdict, self.refs[op.key])

    @staticmethod
    def _reference(m, p, bound):
        if p.reference == "unsupported":
            return ("unsupported", None)
        pf = (
            m.slcomp.parse_slcomp(p.text)
            if p.name.endswith(".smt2")
            else m.parser.parse_native(p.text)
        )
        if p.reference == "label":
            return ("label", corpus.expected_label(p))
        try:
            v = m.engine.prove(pf.query, pf.registry)
        except Exception as e:  # the same fault the CLI run hit
            return ("fault", type(e).__name__)
        report = m.oracle.oracle_entails(pf.query, pf.registry, bound)
        confirmed = v.counter is not None and m.oracle.confirm_countermodel(
            v.counter, pf.query, pf.registry, bound
        )
        if v.valid and m.engine.check_cyclic_soundness(v.tree, pf.registry):
            return ("bad", "unsound_proof")
        if v.counter is not None and not confirmed:
            return ("bad", "unconfirmed_countermodel")
        if v.valid:
            ok = {"valid"} if report.bounded_valid else set()
        else:
            ok = {"invalid"} if (confirmed or not report.bounded_valid) else set()
        return ("oracle", ok)


def _batch_failure(code, verdict, ref) -> str | None:
    kind, val = ref
    if code is None:  # run_cli raised; verdict holds the exception type
        return verdict
    if kind == "unsupported":
        return None if code == 2 and verdict is None else "accepted_unsupported"
    if verdict is None:
        return val if kind == "fault" else f"exit_{code}"
    if kind == "label":
        return None if verdict.lower() == val and code == 0 else "wrong_verdict"
    if kind == "bad":
        return val
    return None if kind == "oracle" and verdict.lower() in val else "wrong_verdict"


WORKLOADS = {"chain": Chain, "suite-oracle": SuiteOracle, "batch": Batch}


# -------------------------------------------------------------- the loop


class Result:
    __slots__ = ("op", "seconds", "raw", "out", "failure")

    def __init__(self, op, seconds, out, failure):
        self.op, self.seconds, self.out, self.failure = op, seconds, out, failure
        self.raw = seconds


def run_round(wl, tracing: bool):
    """Set up and run every operation once, then check the outputs.  Times
    are corrected to the reference host speed (speed.py), except in
    traced rounds, where the sampling would land inside the spans."""
    meter = contextlib.nullcontext() if tracing else speed.Speedometer()
    marks = []
    with meter:
        t0 = time.perf_counter()
        m = fresh_sepent()
        ops = wl.build(m)
        t1 = time.perf_counter()

        t = None
        if tracing:
            t = tracer.Tracer()
            tracer.instrument(t, m)
        results = []
        try:
            for op in ops:
                start = time.perf_counter()
                try:
                    out, failure = op.run(), None
                except Exception as e:  # counted as a failed operation
                    out, failure = None, type(e).__name__
                end = time.perf_counter()
                results.append(Result(op, end - start, out, failure))
                marks.append((start, end))
        finally:
            if t is not None:
                t.restore()
    setup = t1 - t0
    if not tracing:
        setup = meter.scaled(t0, t1)
        for r, (start, end) in zip(results, marks):
            r.raw = meter.net(start, end)
            r.seconds = meter.scaled(start, end)
    for r in results:
        if r.failure is None:
            r.failure = wl.check(m, r.op, r.out)
    return m, setup, results, t


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def tail(values: list[float]) -> float:
    """Highest ladder percentile with at least ten problems beyond it; with
    fewer than twenty problems, the slowest one."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        if n * (1 - p / 100) >= 10:
            return ordered[min(n - 1, math.ceil(n * p / 100) - 1)]
    return ordered[-1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sepent").is_dir() or not (ROOT / "tests").is_dir():
        print(f"perfbench: no sepent sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    wl = WORKLOADS[args.workload](args.seed)
    rounds = []
    began = time.perf_counter()
    try:
        while True:
            t = time.perf_counter()
            m, setup, results, traced = run_round(wl, bool(args.trace))
            layers = tracer.layer_metrics(traced) if traced else None
            # keep plain figures only: ops and outputs hold this round's modules
            results = [(r.op.key, r.op.size, r.seconds, r.failure, r.raw) for r in results]
            del m, traced
            gc.collect()
            took = time.perf_counter() - t
            rounds.append((setup, results, layers))
            if time.perf_counter() - began + took > args.seconds:
                break
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    all_results = [r for _, results, _ in rounds for r in results]
    failures: dict[str, int] = {}
    for _, _, _, failure, _ in all_results:
        if failure is not None:
            failures[failure] = failures.get(failure, 0) + 1
    failed = sum(failures.values())
    correct = set(failures) <= KNOWN_FAULTS

    per_key: dict[str, list[float]] = {}
    size: dict[str, float] = {}
    for key, n, seconds, _, _ in all_results:
        per_key.setdefault(key, []).append(seconds)
        size[key] = n
    keys = sorted(per_key)
    op_median = [statistics.median(per_key[k]) for k in keys]
    solve = statistics.median(sum(r[2] for r in results) for _, results, _ in rounds)

    metrics: dict[str, tuple[float, str]]
    if args.trace:
        metrics = {
            name: (statistics.median(layers[name][0] for _, _, layers in rounds), unit)
            for name, (_, unit) in rounds[0][2].items()
        }
        metrics["traced.solve_s"] = (solve, "s")
    else:
        metrics = {
            "setup_s": (statistics.median(r[0] for r in rounds), "s"),
            "solve_s": (solve, "s"),
            "op_p50_ms": (statistics.median(op_median) * 1000, "ms"),
            "op_tail_ms": (tail(op_median) * 1000, "ms"),
            "time_exponent": (slope([size[k] for k in keys], op_median), "1"),
            "peak_rss_mb": (peak_mb, "MB"),
        }

    print(
        f"perfbench {args.workload}: {len(rounds)} rounds, {len(all_results)} operations,"
        f" failures {failures or 'none'}; round solve times (s), corrected/wall:"
        f" {' '.join(f'{sum(r[2] for r in res):.3f}/{sum(r[4] for r in res):.3f}' for _, res, _ in rounds)}",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(all_results),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
