"""Acceptance gate: one test per shipping criterion, tolerances pinned.

Each test prints a single summary line with the measured numbers; pytest's
own PASSED/FAILED column is the per-criterion verdict.
"""

import io
import random
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import disjunction_equivalent, entailments, make_registry, parse_query
from normal_form import normalize
from sepent.cli import run_cli
from sepent.certify import check_cyclic_soundness
from sepent.engine import Edge, prove
from sepent.export import export_proof
from sepent.oracle import Bound, confirm_countermodel, oracle_entails
from sepent.syntax import (
    Entailment,
    IntLit,
    NULL,
    PointsTo,
    PredOcc,
    PtrEq,
    PtrNeq,
    SymbolicHeap,
    Var,
    is_fresh_name,
)
from suite_cases import SUITE, chain_sequent
from test_engine import two_node_cycle

DATA = Path(__file__).parent / "data"
GOLDEN = "lls(x, null, mi, ma) /\\ x!=null |- llb(x, null, mi)"
SUITE_BOUND = Bound(max_unfold=4, max_locs=6)  # data domain stays -3..6


@pytest.fixture(scope="module")
def reg():
    return make_registry()


@pytest.fixture(scope="module")
def suite_runs(reg):
    """Engine verdicts and proof trees for the whole suite, computed once."""
    runs = []
    t0 = time.perf_counter()
    for name, sequent, valid in SUITE:
        ent = parse_query(sequent)
        runs.append((name, ent, valid, prove(ent, reg)))
    return runs, time.perf_counter() - t0


def test_golden_proof_shape_and_speed(reg):
    ent = parse_query(GOLDEN)
    t0 = time.perf_counter()
    verdict = prove(ent, reg)
    elapsed = time.perf_counter() - t0

    assert verdict.valid
    links = verdict.tree.backlinks()
    assert len(links) == 1
    companion, bud, sigma = links[0]
    # the renaming sends the bud's fresh names back to the companion's
    # root and order-source arguments
    assert all(is_fresh_name(src) for src in sigma)
    assert set(sigma.values()) == {"x", "mi"}
    rules = []
    node = verdict.tree.node(bud)
    while node.id != companion:
        rules.append(node.edge.rule)
        node = verdict.tree.node(node.parent)
    assert "LInd" in rules, "cycle must cross a left unfolding"
    assert elapsed < 0.100
    print(
        f"golden proof: PASS  valid, 1 backlink via {sigma}, "
        f"LInd on cycle, {elapsed * 1000:.1f} ms"
    )


def test_suite_agreement_with_oracle(reg, suite_runs):
    runs, engine_time = suite_runs
    assert len(runs) >= 30
    t0 = time.perf_counter()
    confirmed = 0
    for name, ent, valid, verdict in runs:
        assert verdict.valid == valid, f"engine wrong on {name}"
        report = oracle_entails(ent, reg, SUITE_BOUND)
        assert report.bounded_valid == valid, f"oracle disagrees on {name}"
        if not valid:
            model = verdict.counter or report.counter
            assert model is not None, f"{name}: no countermodel"
            assert confirm_countermodel(model, ent, reg, SUITE_BOUND), name
            confirmed += 1
    total = engine_time + time.perf_counter() - t0
    assert total < 30.0
    print(
        f"suite agreement: PASS  {len(runs)} cases, 100% agreement, "
        f"{confirmed} countermodels confirmed, {total:.2f} s"
    )


GENERATED_BOUND = Bound(max_unfold=2, max_locs=4, data_min=-1, data_max=3)


@given(entailments(lhs_atoms=4, rhs_atoms=3))
@settings(max_examples=150, deadline=None)
def test_engine_agrees_with_oracle_on_generated_inputs(e):
    """Beyond the curated suite: a VALID verdict holds in every model up to
    the bound, and every countermodel the engine gives refutes the input
    there. A counterexample found here becomes a named suite case."""
    reg = make_registry()
    verdict = prove(e, reg, node_budget=3000)
    if verdict.valid:
        assert oracle_entails(e, reg, GENERATED_BOUND).bounded_valid
    if verdict.counter is not None:
        assert confirm_countermodel(verdict.counter, e, reg, GENERATED_BOUND)


def test_unfolding_numbers_stay_within_two(suite_runs):
    runs, _ = suite_runs
    worst = 0
    for name, _, _, verdict in runs:
        for node in verdict.tree.nodes.values():
            for atom in node.ent.lhs.spatial:
                if isinstance(atom, PredOcc):
                    assert atom.unfold <= 2, f"{name}: unfold {atom.unfold}"
                    worst = max(worst, atom.unfold)
    print(f"unfolding ceiling: PASS  max left unfold number {worst} (bound 2)")


def within(seconds, fn, *args):
    """fn(*args) in a daemon thread; fails if it has not returned in time,
    so a hang is reported instead of stalling the run."""
    box = {}

    def run():
        try:
            box["out"] = fn(*args)
        except BaseException as e:  # re-raised in the test's thread
            box["err"] = e

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    if "err" in box:
        raise box["err"]
    assert "out" in box, f"{fn.__name__} still running after {seconds} s"
    return box["out"]


def test_global_soundness_checker(reg, suite_runs):
    runs, _ = suite_runs
    accepted = 0
    for name, _, valid, verdict in runs:
        if valid:
            assert check_cyclic_soundness(verdict.tree, reg) == [], name
            accepted += 1

    negatives = []
    sibling = two_node_cycle()
    sibling.add(sibling.node(1).ent, 0, Edge("ExM", (0,)))
    sibling.node(1).companion = 2
    negatives.append(("companion not an ancestor", sibling))

    touched = two_node_cycle()
    touched.node(1).sigma = {"x": "y"}
    negatives.append(("renaming hits an input variable", touched))

    unmatched = two_node_cycle()
    unmatched.node(1).match = {}
    negatives.append(("atom map not a bijection", unmatched))

    negatives.append(("no unfolding progress", two_node_cycle(unfold_bud=0)))
    negatives.append(
        ("no progressing trace", two_node_cycle(progressed=frozenset()))
    )

    # Forgeries of a real proof: bud 23 links to node 11 down the path
    # 12, 14, 19, 20, 21, 23, and node 12 (LInd) maps the occurrence by
    # fwd == (1,).
    def chain_proof():
        tree = prove(parse_query(chain_sequent(2)), reg).tree
        assert len(tree.nodes) == 30 and tree.node(23).companion == 11
        assert tree.node(12).edge.fwd == (1,)
        return tree

    looped = chain_proof()
    looped.node(0).parent = 23
    negatives.append(("parent links loop through the root", looped))

    edgeless = chain_proof()
    edgeless.node(19).edge = None
    negatives.append(("edgeless node on the cycle", edgeless))

    negative_index = chain_proof()
    lind = negative_index.node(12)
    lind.edge = replace(lind.edge, fwd=(-1,))
    negatives.append(("trace index below the edge", negative_index))

    for label, tree in negatives:
        report = within(10, check_cyclic_soundness, tree, reg)
        assert report, f"accepted bad proof: {label}"
    print(
        f"global soundness: PASS  {accepted} emitted proofs accepted, "
        f"{len(negatives)} forged certificates rejected"
    )


def _random_lhs(rnd):
    names = ["x", "y", "z"]
    spatial = []
    for _ in range(rnd.randint(0, 2)):
        root = Var(rnd.choice(names))
        tail = rnd.choice([Var("y"), Var("z"), NULL])
        kind = rnd.randrange(4)
        if kind == 0:
            spatial.append(PredOcc("ll", (root, tail)))
        elif kind == 1:
            spatial.append(PointsTo(root, "c1", (tail,)))
        elif kind == 2:
            spatial.append(PredOcc("llb", (root, tail, IntLit(rnd.randint(0, 3)))))
        else:
            lo = rnd.randint(-1, 2)
            spatial.append(
                PredOcc("lls", (root, tail, IntLit(lo), IntLit(lo + rnd.randint(0, 3))))
            )
    pure = []
    for _ in range(rnd.randint(0, 2)):
        a, b = rnd.choice(names), rnd.choice(names + ["null"])
        bv = NULL if b == "null" else Var(b)
        if rnd.randrange(3) == 0 and a != b:
            pure.append(PtrEq(Var(a), bv))
        else:
            pure.append(PtrNeq(Var(a), bv))
    return SymbolicHeap(tuple(spatial), tuple(pure))


def test_normalization_is_semantics_preserving(reg):
    bound = Bound(max_unfold=3, max_locs=5)
    rnd = random.Random(20260814)
    checked = 0
    for _ in range(200):
        lhs = _random_lhs(rnd)
        ent = Entailment(lhs, SymbolicHeap((), ()))
        branches = [b.lhs for b, _ in normalize(ent, reg)]
        assert disjunction_equivalent(lhs, branches, reg, bound), str(lhs)
        checked += 1
    print(
        f"normalization equivalence: PASS  {checked} random premises, "
        "0 discrepancies at depth 3"
    )


def test_normal_form_idempotence_and_determinism(reg):
    fixpoints = 0
    for _, sequent, _ in SUITE:
        ent = parse_query(sequent)
        for branch, _ in normalize(ent, reg):
            again = normalize(branch, reg)
            assert again == [(branch, ())], f"not a fixpoint: {branch}"
            fixpoints += 1

    byte_identical = 0
    for sequent in (GOLDEN, chain_sequent(3), "x->c1(null) |- x->ct(null, null)"):
        ent = parse_query(sequent)
        first, second = prove(ent, reg), prove(ent, reg)
        for fmt in ("text", "dot"):
            assert export_proof(first.tree, fmt) == export_proof(second.tree, fmt)
            byte_identical += 1
    print(
        f"idempotence and determinism: PASS  {fixpoints} normal forms stable, "
        f"{byte_identical} exports byte-identical"
    )


def test_scaling_family_stays_cubic(reg):
    counts = []
    for n in range(1, 13):
        verdict = prove(parse_query(chain_sequent(n)), reg)
        assert verdict.valid
        counts.append(len(verdict.tree.nodes))

    c = max(nodes / n**3 for n, nodes in zip(range(1, 5), counts[:4]))
    for n, nodes in enumerate(counts, start=1):
        assert nodes <= c * n**3, f"n={n}: {nodes} > {c:.2f}*n^3"
    assert counts == sorted(counts), "node counts must grow monotonically"
    for i in range(5, 12):
        ratio = counts[i] / counts[i - 1]
        assert ratio <= 4.0, f"growth ratio {ratio:.2f} at n={i + 1}"
    print(
        f"scaling family: PASS  node counts {counts}, fit C={c:.1f} from n<=4, "
        "bound C*n^3 holds through n=12"
    )


def test_bundled_batch_has_no_mismatches():
    out = io.StringIO()
    code = run_cli(["--input", str(DATA)], out=out)
    summary = out.getvalue().splitlines()[-1]
    assert code == 0
    assert summary == "checked 10 files: 0 mismatches, 0 errors"
    print(f"batch expectations: PASS  {summary}")
