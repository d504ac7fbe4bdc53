"""Proof-search engine: the worked sorted-list proof, axioms, stuck cases,
back-links, the independent cycle checker, and countermodel lifting.

The golden tree structure is frozen from a verified run and cross-checked
against the model enumerator; the hand-built certificates at the end must
each be rejected by check_cyclic_soundness for the stated reason.
"""

import re
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MALFORMED_ATOMS, entailments, make_registry, parse_query
from sepent import engine, normalize
from sepent.certify import _link_conditions, check_cyclic_soundness
from sepent.defs import InductiveDef, Param, RecBranch, Registry, Role
from sepent.engine import (
    Edge,
    ProofTree,
    ResourceLimit,
    SideConditionFailed,
    UnsoundProof,
    UnsupportedFragment,
    _spatial_unifiers,
    _unify_atom,
    apply_rule,
    is_closed,
    link_back,
    prove,
)
from sepent.export import export_proof
from sepent.oracle import Bound, confirm_countermodel, holds, oracle_entails
from sepent.parser import parse_native
from sepent.syntax import (
    NULL,
    ArithEq,
    ArithLeq,
    Entailment,
    FreshNames,
    IntLit,
    PointsTo,
    PredOcc,
    PtrEq,
    PtrNeq,
    SymbolicHeap,
    Var,
)
from suite_cases import SUITE, chain_sequent
from test_normalize import full_scan_appliers, reference_appliers

x, y, z, E = Var("x"), Var("y"), Var("z"), Var("E")
mi, ma, u = Var("mi"), Var("ma"), Var("u")

ORACLE_BOUND = Bound(max_unfold=3, max_locs=5)


def heap(spatial=(), pure=()):
    return SymbolicHeap(tuple(spatial), tuple(pure))


def is_preproof(tree):
    """Every leaf is closed: an axiom or a bud."""
    return all(
        not n.is_leaf() or n.status in ("valid", "bud") for n in tree.nodes.values()
    )


def golden_entailment():
    return Entailment(
        heap((PredOcc("lls", (x, NULL, mi, ma)),), (PtrNeq(x, NULL),)),
        heap((PredOcc("llb", (x, NULL, mi)),)),
    )


# ------------------------------------------------------------- golden proof


class TestGoldenProof:
    def test_valid_within_time_budget(self, registry):
        ent = golden_entailment()
        prove(ent, registry)  # warm caches before timing
        t0 = time.perf_counter()
        verdict = prove(ent, registry)
        elapsed = time.perf_counter() - t0
        assert verdict.valid
        assert elapsed < 0.1

    def test_structure_frozen(self, registry):
        verdict = prove(golden_entailment(), registry)
        tree = verdict.tree
        assert len(tree.nodes) == 13
        assert list(tree.edges()) == [
            (0, "LInd", 1),
            (1, "ExM", 2),
            (1, "ExM", 3),
            (2, "Subst", 4),
            (4, "LBase", 5),
            (5, "RInd", 6),
            (6, "RBase", 7),
            (3, "NeqStar", 8),
            (8, "RInd", 9),
            (9, "Hypothesis", 10),
            (10, "Star", 11),
            (10, "Star", 12),
        ]
        assert tree.backlinks() == [(0, 12, {"X#1": "x", "m1#2": "mi"})]
        assert tree.node(7).axiom == "Id"
        assert tree.node(11).axiom == "Id"
        assert is_preproof(tree)

    def test_unfolding_steps_happen_where_expected(self, registry):
        tree = prove(golden_entailment(), registry).tree
        # LInd unfolds the root occurrence; its edge records the progress
        assert tree.node(1).edge.progressed == frozenset({0})
        # the cycle goes through LInd: the bud keeps the unfolded occurrence
        bud = tree.node(12)
        occs = [a for _, a in bud.ent.lhs.pred_occs()]
        assert [a.unfold for a in occs] == [1]
        assert max(
            a.unfold
            for n in tree.nodes.values()
            for _, a in n.ent.lhs.pred_occs()
        ) == 1

    def test_key_sequents_frozen(self, registry):
        tree = prove(golden_entailment(), registry).tree
        assert str(tree.node(5).ent) == (
            "x->c4(null, ma) /\\ x!=null /\\ mi<=ma |- llb(x, null, mi)"
        )
        assert str(tree.node(12).ent) == (
            "lls(X#1, null, m1#2, ma)^1 /\\ x!=null /\\ mi<=m1#2"
            " /\\ X#1!=null /\\ x!=X#1 |- llb(X#1, null, mi)"
        )

    def test_checker_accepts_emitted_tree(self, registry):
        tree = prove(golden_entailment(), registry).tree
        assert check_cyclic_soundness(tree, registry) == []

    def test_deterministic_across_runs(self, registry):
        runs = [prove(golden_entailment(), registry).tree for _ in range(2)]
        fingerprints = [
            (
                list(t.edges()),
                t.backlinks(),
                [str(t.node(i).ent) for i in sorted(t.nodes)],
            )
            for t in runs
        ]
        assert fingerprints[0] == fingerprints[1]

    def test_oracle_agrees(self, registry):
        assert oracle_entails(
            golden_entailment(), registry, ORACLE_BOUND
        ).bounded_valid


# ------------------------------------------------------------------- axioms


class TestAxioms:
    def test_id_closes_identical_sequent(self, registry):
        ent = Entailment(
            heap((PredOcc("lla", (x, NULL, u)),), (PtrNeq(x, NULL),)),
            heap((PredOcc("lla", (x, NULL, u)),)),
        )
        verdict = prove(ent, registry)
        assert verdict.valid
        assert len(verdict.tree.nodes) == 1
        assert verdict.tree.node(0).axiom == "Id"

    def test_id_needs_entailed_rhs_pure(self, registry):
        ent = Entailment(
            heap((PointsTo(x, "c1", (y,)),), (PtrNeq(x, NULL),)),
            heap((PointsTo(x, "c1", (y,)),), (PtrNeq(y, NULL),)),
        )
        verdict = prove(ent, registry)
        assert not verdict.valid
        # the gap is purely pure-side, so the stuck case is 2a (no witness);
        # the enumerator still refutes it
        assert verdict.case == "2a"
        assert verdict.counter is None
        report = oracle_entails(ent, registry, ORACLE_BOUND)
        assert not report.bounded_valid
        assert confirm_countermodel(report.counter, ent, registry, ORACLE_BOUND)

    def test_emp_axiom(self, registry):
        verdict = prove(Entailment(heap(), heap()), registry)
        assert verdict.valid
        assert verdict.tree.node(0).axiom == "Emp"

    def test_inconsistency_spatial_against_pure(self, registry):
        # the segment forces mi<=ma, the pure part forbids it: vacuously valid
        ent = Entailment(
            heap(
                (PredOcc("lls", (x, NULL, mi, ma)),),
                (
                    PtrNeq(x, NULL),
                    ArithLeq(ma, IntLit(0)),
                    ArithLeq(IntLit(1), mi),
                ),
            ),
            heap((PredOcc("tree", (x, NULL)),)),
        )
        verdict = prove(ent, registry)
        assert verdict.valid
        assert verdict.tree.node(0).axiom == "Inconsistency"
        assert oracle_entails(ent, registry, ORACLE_BOUND).bounded_valid


# -------------------------------------------------------------- stuck cases


class TestStuckCases:
    def check_invalid(self, ent, registry, case):
        verdict = prove(ent, registry)
        assert not verdict.valid
        assert verdict.case == case
        report = oracle_entails(ent, registry, ORACLE_BOUND)
        assert not report.bounded_valid
        return verdict

    def test_2b_cell_against_emp(self, registry):
        ent = Entailment(
            heap((PointsTo(x, "c1", (NULL,)),), (PtrNeq(x, NULL),)), heap()
        )
        verdict = self.check_invalid(ent, registry, "2b")
        assert confirm_countermodel(verdict.counter, ent, registry, ORACLE_BOUND)

    def test_2b_lasso_not_covered_on_the_right(self, registry):
        ent = Entailment(
            heap(
                (PredOcc("ll", (x, E)), PredOcc("ll", (E, NULL))),
                (PtrNeq(x, E), PtrNeq(E, NULL)),
            ),
            heap((PredOcc("ll", (x, E)),)),
        )
        verdict = self.check_invalid(ent, registry, "2b")
        assert confirm_countermodel(verdict.counter, ent, registry, ORACLE_BOUND)

    def test_2c_missing_cell_on_the_left(self, registry):
        ent = Entailment(
            heap((), (PtrNeq(x, NULL),)),
            heap((PointsTo(x, "c1", (NULL,)),)),
        )
        verdict = self.check_invalid(ent, registry, "2c")
        assert confirm_countermodel(verdict.counter, ent, registry, ORACLE_BOUND)
        assert verdict.counter.heap == {}

    def test_2d_sort_mismatch_at_root(self, registry):
        ent = Entailment(
            heap((PointsTo(x, "c1", (y,)),), (PtrNeq(x, NULL),)),
            heap((PointsTo(x, "ct", (y, y)),)),
        )
        verdict = self.check_invalid(ent, registry, "2d")
        assert confirm_countermodel(verdict.counter, ent, registry, ORACLE_BOUND)

    def test_2d_field_mismatch_at_root(self, registry):
        ent = Entailment(
            heap(
                (PointsTo(x, "c1", (y,)), PointsTo(z, "c1", (NULL,))),
                (PtrNeq(x, NULL), PtrNeq(z, NULL), PtrNeq(x, z)),
            ),
            heap((PointsTo(x, "c1", (z,)), PointsTo(z, "c1", (NULL,)))),
        )
        verdict = self.check_invalid(ent, registry, "2d")
        assert confirm_countermodel(verdict.counter, ent, registry, ORACLE_BOUND)

    def test_2d_after_unfolding_skip_levels(self, registry):
        ent = Entailment(
            heap((PredOcc("skl2", (x, NULL)),), (PtrNeq(x, NULL),)),
            heap((PredOcc("skl1", (x, NULL)),)),
        )
        verdict = self.check_invalid(ent, registry, "2d")
        assert confirm_countermodel(verdict.counter, ent, registry, ORACLE_BOUND)
        assert len(verdict.tree.nodes) > 1  # reached below the root

    def test_2a_reports_no_witness(self, registry):
        ent = Entailment(
            heap((PredOcc("llb", (x, NULL, IntLit(0))),), (PtrNeq(x, NULL),)),
            heap((PredOcc("llb", (x, NULL, IntLit(2))),)),
        )
        verdict = self.check_invalid(ent, registry, "2a")
        assert verdict.counter is None


# ------------------------------------------------------------ spec examples


class TestListVersusTree:
    def test_invalid_with_oracle_countermodel(self, registry):
        ent = Entailment(
            heap((PredOcc("ll", (x, NULL)),), (PtrNeq(x, NULL),)),
            heap((PredOcc("tree", (x, NULL)),)),
        )
        verdict = prove(ent, registry)
        assert not verdict.valid
        assert verdict.case == "2a"
        # sort mismatch leaves no reduction; the stuck leaf is the unfolded cell
        leaf = verdict.tree.node(verdict.node)
        assert str(leaf.ent) == "x->c1(null) /\\ x!=null |- tree(x, null)"
        report = oracle_entails(ent, registry, ORACLE_BOUND)
        assert not report.bounded_valid
        assert confirm_countermodel(report.counter, ent, registry, ORACLE_BOUND)
        assert len(report.counter.heap) == 1  # one list cell already refutes


# ----------------------------------------------------------------- stepping


class TestApplyRule:
    GOLDEN_SCRIPT = [
        (0, "LInd"),
        (1, "ExM"),
        (2, "Subst"),
        (4, "LBase"),
        (5, "RInd"),
        (6, "RBase"),
        (7, "Id"),
        (3, "NeqStar"),
        (8, "RInd"),
        (9, "Hypothesis"),
        (10, "Star"),
        (11, "Id"),
    ]

    def test_replay_golden_proof_by_hand(self, registry):
        tree = ProofTree.new(golden_entailment())
        for nid, rule in self.GOLDEN_SCRIPT:
            apply_rule(tree, nid, rule, registry)
        found = link_back(tree, 12, registry)
        assert found is not None
        cid, sigma, match = found
        assert cid == 0
        assert sigma == {"X#1": "x", "m1#2": "mi"}
        bud = tree.node(12)
        bud.status = "bud"
        bud.companion, bud.sigma, bud.match = cid, sigma, match
        assert is_preproof(tree)
        assert check_cyclic_soundness(tree, registry) == []

    def test_wrong_rule_fails_side_conditions(self, registry):
        tree = ProofTree.new(golden_entailment())
        with pytest.raises(SideConditionFailed):
            apply_rule(tree, 0, "Star", registry)

    def test_closed_node_rejects_further_rules(self, registry):
        tree = ProofTree.new(Entailment(heap(), heap()))
        apply_rule(tree, 0, "Emp", registry)
        with pytest.raises(SideConditionFailed):
            apply_rule(tree, 0, "Emp", registry)

    def test_inner_node_rejects_rules(self, registry):
        tree = ProofTree.new(golden_entailment())
        apply_rule(tree, 0, "LInd", registry)
        with pytest.raises(SideConditionFailed):
            apply_rule(tree, 0, "LInd", registry)

    def test_premises_are_returned(self, registry):
        tree = ProofTree.new(golden_entailment())
        premises = apply_rule(tree, 0, "LInd", registry)
        assert len(premises) == 1
        assert premises[0] is tree.node(1).ent

    def test_is_closed_reports_selection(self, registry):
        tree = ProofTree.new(golden_entailment())
        leaf_id, choice = is_closed(tree, registry)
        assert leaf_id == 0
        assert isinstance(choice, normalize.RuleChoice)
        assert choice.label == "LInd"
        closed = ProofTree.new(Entailment(heap(), heap()))
        apply_rule(closed, 0, "Emp", registry)
        assert is_closed(closed, registry) is None

    def test_stuck_leaf_rejects_star(self, registry):
        # extra_cell's stuck leaf has an identical cell pair, so Star's own
        # conditions hold there; the stuck check comes first and refuses it.
        sequent = next(s for name, s, _ in SUITE if name == "extra_cell")
        verdict = prove(parse_query(sequent), registry)
        assert verdict.case == "2b"
        tree = ProofTree.new(verdict.tree.node(verdict.node).ent)
        assert is_closed(tree, registry) == (0, "2b")
        with pytest.raises(SideConditionFailed):
            apply_rule(tree, 0, "Star", registry)
        assert tree.node(0).is_leaf()


@pytest.mark.parametrize(
    "sequent",
    [s for _, s, _ in SUITE] + [chain_sequent(n) for n in range(1, 6)],
)
def test_selector_names_every_step(sequent, registry):
    """At every node of a finished search, the selector names what the
    search did there: the rule on the child edges, the axiom that closed
    the leaf, or the stuck case."""
    tree = prove(parse_query(sequent), registry).tree
    for n in tree.nodes.values():
        sel = engine._select(n.ent, registry, FreshNames())
        if n.children:
            assert {tree.node(c).edge.rule for c in n.children} == {sel.label}
        elif n.status == "valid":
            assert sel.label == n.axiom
        elif n.status == "invalid":
            assert sel == n.case


def reference_open_leaf(tree):
    """The full preorder walk from the root."""
    stack = [tree.root]
    while stack:
        n = tree.nodes[stack.pop()]
        if n.status == "open" and n.is_leaf():
            return n
        stack.extend(reversed(n.children))
    return None


def search_steps(tree, reg):
    """Grow the tree as prove does, one rule or back-link per step, and
    yield after every step."""
    while (step := is_closed(tree, reg)) is not None:
        leaf_id, choice = step
        node = tree.node(leaf_id)
        if isinstance(choice, str):
            node.status = "invalid"
            yield
            return
        linked = link_back(tree, leaf_id, reg)
        if linked is not None:
            node.status = "bud"
            node.companion, node.sigma, node.match = linked
        else:
            apply_rule(tree, leaf_id, choice.label, reg)
        yield


@pytest.mark.parametrize(
    "sequent",
    [s for _, s, _ in SUITE] + [chain_sequent(n) for n in range(1, 7)],
    ids=[name for name, _, _ in SUITE] + [f"chain{n}" for n in range(1, 7)],
)
def test_open_leaf_matches_full_walk(sequent, registry):
    tree = ProofTree.new(parse_query(sequent))
    assert tree.open_leaf() is reference_open_leaf(tree)
    for _ in search_steps(tree, registry):
        assert tree.open_leaf() is reference_open_leaf(tree)
    assert list(tree.edges()) == list(prove(parse_query(sequent), registry).tree.edges())


# The golden proof with the right branch of the ExM split built first.
RIGHT_FIRST_SCRIPT = [
    (0, "LInd"),
    (1, "ExM"),
    (3, "NeqStar"),
    (4, "RInd"),
    (5, "Hypothesis"),
    (6, "Star"),
    (7, "Id"),
    (2, "Subst"),
    (9, "LBase"),
    (10, "RInd"),
    (11, "RBase"),
    (12, "Id"),
]


@pytest.mark.parametrize(
    "script",
    [TestApplyRule.GOLDEN_SCRIPT, RIGHT_FIRST_SCRIPT],
    ids=["golden", "right_first"],
)
def test_open_leaf_matches_full_walk_along_a_script(script, registry):
    tree = ProofTree.new(golden_entailment())
    for nid, rule in script:
        assert tree.open_leaf() is reference_open_leaf(tree)
        apply_rule(tree, nid, rule, registry)
    assert tree.open_leaf() is reference_open_leaf(tree)
    assert tree.open_leaf() is not None  # the bud is left open


# ---------------------------------------------------------------- back-links


class TestLinkBack:
    def test_progress_is_required(self, registry):
        # identical ancestor but nothing was ever unfolded: no link
        ent = Entailment(
            heap((PredOcc("ll", (x, NULL)),), (PtrNeq(x, NULL),)),
            heap((PredOcc("ll", (x, NULL)),)),
        )
        tree = ProofTree.new(ent)
        tree.add(ent, 0, Edge("ExM", (0,)))
        assert link_back(tree, 1, registry) is None

    def test_renaming_restricted_to_proof_fresh_names(self, registry):
        # the bud differs from the ancestor only by input names: no link
        ent0 = Entailment(
            heap((PredOcc("ll", (x, NULL), unfold=0),), (PtrNeq(x, NULL),)),
            heap((PredOcc("ll", (x, NULL)),)),
        )
        ent1 = Entailment(
            heap((PredOcc("ll", (y, NULL), unfold=1),), (PtrNeq(y, NULL),)),
            heap((PredOcc("ll", (y, NULL)),)),
        )
        tree = ProofTree.new(ent0)
        tree.add(ent1, 0, Edge("LInd", (0,), frozenset({0})))
        assert link_back(tree, 1, registry) is None


def reference_spatial_unifiers(bud, comp):
    """The recursive enumeration, one level per bud atom."""
    if len(bud) != len(comp):
        return

    def go(i, used, sigma, match):
        if i == len(bud):
            yield sigma, match
            return
        for j in range(len(comp)):
            if j in used:
                continue
            ext = dict(sigma)
            if _unify_atom(bud[i], comp[j], ext, []):
                yield from go(i + 1, used | {j}, ext, {**match, i: j})

    yield from go(0, frozenset(), {}, {})


def reference_link_back(tree, leaf_id, reg):
    """The plain ancestor scan: every unifier of every ancestor, conditions
    before progress."""
    ent = tree.node(leaf_id).ent
    if not any(a.unfold > 0 for _, a in ent.lhs.pred_occs()):
        return None
    for anc in tree.ancestors(leaf_id):
        for sigma, match in reference_spatial_unifiers(
            ent.lhs.spatial, anc.ent.lhs.spatial
        ):
            if not _link_conditions(ent, anc.ent, sigma):
                continue
            if any(
                isinstance(a, PredOcc)
                and isinstance(b, PredOcc)
                and a.unfold > b.unfold
                for a, b in (
                    (ent.lhs.spatial[i], anc.ent.lhs.spatial[j])
                    for i, j in match.items()
                )
            ):
                return anc.id, sigma, match
    return None


VALID_SUITE = [(name, s) for name, s, valid in SUITE if valid]


@pytest.mark.parametrize(
    "sequent",
    [chain_sequent(n) for n in range(1, 6)] + [s for _, s in VALID_SUITE],
    ids=[f"chain{n}" for n in range(1, 6)] + [name for name, _ in VALID_SUITE],
)
def test_link_back_matches_reference_scan(sequent, registry):
    # link_back reads only the node and its ancestors, which never change
    # once created, so the finished tree replays every call of the search
    tree = prove(parse_query(sequent), registry).tree
    for nid, node in tree.nodes.items():
        found = link_back(tree, nid, registry)
        assert found == reference_link_back(tree, nid, registry)
        if node.status == "bud":
            assert found == (node.companion, node.sigma, node.match)
        bud = node.ent.lhs.spatial
        for anc in tree.ancestors(nid):
            comp = anc.ent.lhs.spatial
            assert list(_spatial_unifiers(bud, comp)) == list(
                reference_spatial_unifiers(bud, comp)
            )


def _spatial_parts(names, n):
    atom = st.tuples(st.booleans(), names, names).map(
        lambda t: PredOcc("ll", (Var(t[1]), Var(t[2])))
        if t[0]
        else PointsTo(Var(t[1]), "c1", (Var(t[2]),))
    )
    return st.lists(atom, min_size=n, max_size=n).map(tuple)


def fresh_select(ent, reg, fresh):
    """engine._select on a copy of the leaf that carries no derived fact,
    so no rule starts from what an earlier one computed or settled."""
    bare = Entailment(
        SymbolicHeap(ent.lhs.spatial, ent.lhs.pure),
        SymbolicHeap(ent.rhs.spatial, ent.rhs.pure),
    )
    return REAL_SELECT(bare, reg, fresh)


REAL_SELECT = engine._select


@given(entailments())
@settings(max_examples=100, deadline=None)
def test_settled_roots_change_no_proof(e):
    """The rules that skip settled roots, and the facts heaps hand on
    (through Subst, LBase, =L and Star too), give the verdict,
    countermodel and proof that the full scans and bare heaps give."""
    reg = make_registry()

    def outcome():
        try:
            v = prove(e, reg, node_budget=3000)
        except (UnsupportedFragment, ResourceLimit) as exc:
            return type(exc).__name__
        return v.valid, v.case, repr(v.counter), export_proof(v.tree, "text")

    got = outcome()
    with mock.patch.object(normalize, "_APPLIERS", full_scan_appliers()):
        assert got == outcome()
    with mock.patch.object(engine, "_select", fresh_select):
        assert got == outcome()


@given(
    st.integers(0, 4).flatmap(
        lambda n: st.tuples(
            _spatial_parts(st.sampled_from(["X#1", "X#2", "a"]), n),
            _spatial_parts(st.sampled_from(["a", "b"]), n),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_spatial_unifiers_match_reference_on_small_parts(parts):
    # few names, so several bijections unify and the search backtracks
    # over bound renamings
    bud, comp = parts
    assert list(_spatial_unifiers(bud, comp)) == list(
        reference_spatial_unifiers(bud, comp)
    )


def test_spatial_unifiers_on_a_long_spatial_part():
    # one recursion level per atom would pass the interpreter's limit
    n = 5000
    bud = tuple(PointsTo(Var(f"v{i}"), "c1", (Var(f"v{i + 1}"),)) for i in range(n))
    assert next(_spatial_unifiers(bud, bud)) == ({}, {i: i for i in range(n)})


def test_spatial_unifiers_on_cells_in_reverse_order():
    # each bud cell has exactly one image, at the far end of the comp
    # tuple; the renaming fixes every root, so no other comp atom is tried
    n = 1000
    bud = tuple(
        PointsTo(Var(f"v{i}"), "c1", (Var(f"F#{i}"),)) for i in range(n)
    )
    comp = tuple(PointsTo(Var(f"v{i}"), "c1", (Var(f"w{i}"),)) for i in range(n))
    comp = comp[::-1]
    assert list(_spatial_unifiers(bud, comp)) == [
        ({f"F#{i}": f"w{i}" for i in range(n)}, {i: n - 1 - i for i in range(n)})
    ]


def contracted_preorder(tree):
    """One record per node in preorder, with every maximal run of NeqNull
    edges, and every run of NeqStar edges, contracted to its last node."""
    out = []
    stack = [tree.root]
    while stack:
        n = tree.node(stack.pop())
        stack.extend(reversed(n.children))
        rule = n.edge.rule if n.edge is not None else None
        if (
            rule in ("NeqNull", "NeqStar")
            and len(n.children) == 1
            and tree.node(n.children[0]).edge.rule == rule
        ):
            continue
        companion = None if n.companion is None else tree.node(n.companion).ent
        out.append(
            (
                n.edge,
                n.ent,
                n.status,
                n.axiom,
                n.case,
                n.counter,
                companion,
                n.sigma,
                n.match,
            )
        )
    return out


@pytest.mark.parametrize(
    "sequent",
    [s for _, s, _ in SUITE] + [chain_sequent(n) for n in range(1, 9)],
    ids=[name for name, _, _ in SUITE] + [f"chain{n}" for n in range(1, 9)],
)
def test_batched_disequalities_contract_the_one_atom_proof(
    sequent, registry, monkeypatch
):
    ent = parse_query(sequent)
    got = prove(ent, registry)
    with monkeypatch.context() as m:
        m.setattr(normalize, "_APPLIERS", reference_appliers())
        want = prove(ent, registry)
    assert contracted_preorder(got.tree) == contracted_preorder(want.tree)
    assert (got.valid, got.case, got.counter) == (
        want.valid,
        want.case,
        want.counter,
    )
    if not got.valid:
        assert got.tree.node(got.node).ent == want.tree.node(want.node).ent


# ------------------------------------------------- certificates, hand-built


def two_node_cycle(unfold_bud=1, progressed=frozenset({0}), fwd=(0,)):
    """Root and one child over the same list sequent, child marked as bud."""
    ent0 = Entailment(
        heap((PredOcc("ll", (Var("X#9"), NULL), unfold=0),), (PtrNeq(Var("X#9"), NULL),)),
        heap((PredOcc("ll", (Var("X#9"), NULL)),)),
    )
    ent1 = Entailment(
        heap(
            (PredOcc("ll", (Var("X#9"), NULL), unfold=unfold_bud),),
            (PtrNeq(Var("X#9"), NULL),),
        ),
        heap((PredOcc("ll", (Var("X#9"), NULL)),)),
    )
    tree = ProofTree.new(ent0)
    tree.add(ent1, 0, Edge("LInd", fwd, progressed))
    bud = tree.node(1)
    bud.status = "bud"
    bud.companion = 0
    bud.sigma = {}
    bud.match = {0: 0}
    return tree


class TestCyclicCheckerRejects:
    def test_companion_must_be_strict_ancestor(self, registry):
        tree = two_node_cycle()
        tree.add(tree.node(1).ent, 0, Edge("ExM", (0,)))  # sibling node 2
        bud = tree.node(1)
        bud.companion = 2
        report = check_cyclic_soundness(tree, registry)
        assert report == ["bud 1: companion 2 is not a strict ancestor"]

    def test_renaming_must_not_touch_input_variables(self, registry):
        tree = two_node_cycle()
        tree.node(1).sigma = {"x": "y"}
        report = check_cyclic_soundness(tree, registry)
        assert report == ["bud 1: renaming touches an input variable"]

    def test_atom_map_must_be_a_bijection(self, registry):
        tree = two_node_cycle()
        tree.node(1).match = {}
        report = check_cyclic_soundness(tree, registry)
        assert report == ["bud 1: atom map is not a bijection"]

    def test_progress_must_be_witnessed_by_unfolding_numbers(self, registry):
        tree = two_node_cycle(unfold_bud=0)
        report = check_cyclic_soundness(tree, registry)
        assert report == [
            "bud 1: no occurrence is unfolded strictly more than its image"
        ]

    def test_trace_must_progress_along_the_cycle(self, registry):
        tree = two_node_cycle(progressed=frozenset())
        report = check_cyclic_soundness(tree, registry)
        assert report == ["bud 1: no progressing trace follows the cycle"]

    def test_trace_must_follow_the_occurrence(self, registry):
        # the edge claims the occurrence was consumed: the trace dies
        tree = two_node_cycle(fwd=(None,))
        report = check_cyclic_soundness(tree, registry)
        assert report == ["bud 1: no progressing trace follows the cycle"]

    def test_edgeless_node_on_the_cycle_is_reported(self, registry):
        tree = two_node_cycle()
        tree.node(1).edge = None
        report = check_cyclic_soundness(tree, registry)
        assert report == ["bud 1: node 1 on the cycle has no edge"]

    def test_missing_companion_is_reported(self, registry):
        tree = two_node_cycle()
        tree.node(1).sigma = None
        report = check_cyclic_soundness(tree, registry)
        assert report == ["bud 1: missing companion, renaming, or atom map"]


# ------------------------------------------------------------ countermodels


class TestCounterModelLifting:
    def test_lifted_model_refutes_the_root_entailment(self, registry):
        # stuck leaf sits below LInd/ExM/Subst steps; the model must still
        # speak about the input variables only
        ent = Entailment(
            heap((PredOcc("ll", (x, NULL)),), (PtrNeq(x, NULL),)),
            heap((PointsTo(x, "c1", (NULL,)),)),
        )
        verdict = prove(ent, registry)
        assert not verdict.valid
        assert verdict.counter is not None
        assert holds(verdict.counter, ent.lhs, registry)
        assert not holds(verdict.counter, ent.rhs, registry)
        assert set(verdict.counter.stack) <= ent.fv() | {"null"}

    def test_deep_lift_through_skip_list_unfoldings(self, registry):
        ent = Entailment(
            heap((PredOcc("skl2", (x, NULL)),), (PtrNeq(x, NULL),)),
            heap((PredOcc("skl1", (x, NULL)),)),
        )
        verdict = prove(ent, registry)
        assert verdict.counter is not None
        assert confirm_countermodel(verdict.counter, ent, registry, ORACLE_BOUND)

    def test_conclusion_variable_leaving_the_premise(self, registry):
        # on the x=y branch LBase drops ll(x, x), the last left-side mention
        # of x, leaving emp |- llb(x, x, 0); the x!=y branch ends stuck
        ent = parse_query("ll(x, y) |- llb(x, y, 0)")
        verdict = prove(ent, registry)
        assert not verdict.valid
        assert not oracle_entails(ent, registry, Bound(3, 3, -1, 3)).bounded_valid

    def test_lift_fills_variables_the_branch_eliminated(self, registry):
        # LBase drops lls(y, y, 1, 1) without a binding for y, so the leaf
        # model has no value for it; lifting must supply one
        ent = parse_query("lls(y, y, 1, 1) * ll(x, z) |- emp")
        verdict = prove(ent, registry)
        assert not verdict.valid
        assert verdict.counter is not None
        assert set(verdict.counter.stack) == {"x", "y", "z"}
        assert confirm_countermodel(verdict.counter, ent, registry, ORACLE_BOUND)


# ----------------------------------------------------------------- frontier


class TestInputValidation:
    def test_conclusion_variable_missing_from_premise(self, registry):
        ent = Entailment(
            heap((PointsTo(x, "c1", (y,)),), (PtrNeq(x, NULL),)),
            heap((PointsTo(x, "c2", (y, u)),)),
        )
        with pytest.raises(UnsupportedFragment, match="missing from the premise"):
            prove(ent, registry)

    def test_reserved_names_rejected(self, registry):
        bad = Var("x#1")
        ent = Entailment(
            heap((PointsTo(bad, "c1", (NULL,)),), (PtrNeq(bad, NULL),)),
            heap(),
        )
        with pytest.raises(UnsupportedFragment, match="reserved"):
            prove(ent, registry)

    def test_arity_checked(self, registry):
        ent = Entailment(
            heap((PredOcc("ll", (x, NULL, y)),), (PtrNeq(x, NULL),)), heap()
        )
        with pytest.raises(UnsupportedFragment, match="ll expects 2 arguments"):
            prove(ent, registry)

    @pytest.mark.parametrize("shape", sorted(MALFORMED_ATOMS))
    def test_malformed_atom_rejected(self, registry, shape):
        # with one field in c1, x->c1(y, z) |- ll(x, y) raised KeyError and
        # x->c1(y, z) |- x->c1(y, z) was VALID
        atom, msg = MALFORMED_ATOMS[shape]
        premise = heap((PointsTo(x, "c1", (y,)),), (PtrNeq(z, NULL),))
        for ent in (
            Entailment(heap((atom,)), heap((atom,))),
            Entailment(premise, heap((atom,))),
        ):
            with pytest.raises(UnsupportedFragment, match=re.escape(msg)):
                prove(ent, registry)

    @pytest.mark.parametrize(
        "lhs, msg",
        [
            (heap((), (PtrEq(IntLit(1), NULL),)), "integer literal 1 used as a pointer in 1=null"),
            (heap((), (PtrNeq(x, IntLit(2)),)), "integer literal 2 used as a pointer in x!=2"),
            (heap((), (PtrEq(x, IntLit(2)),)), "integer literal 2 used as a pointer in x=2"),
            (heap((PointsTo(IntLit(3), "c1", (NULL,)),)), "integer literal 3 used as a pointer"),
            (heap((PointsTo(x, "c1", (IntLit(0),)),)), "integer literal 0 used as a pointer"),
            (heap((PredOcc("ll", (x, IntLit(0))),)), "integer literal 0 used as a pointer"),
            (heap((), (ArithLeq(NULL, mi),)), "null used as an integer in null<=mi"),
            (heap((), (ArithEq(mi, NULL),)), "null used as an integer in mi=null"),
            (heap((PointsTo(x, "c2", (NULL, NULL)),)), "null used as an integer"),
            (heap((PredOcc("lls", (x, NULL, mi, NULL)),)), "null used as an integer"),
        ],
        ids=[
            "literal-eq-null",
            "neq-literal",
            "eq-literal",
            "cell-root",
            "pointer-field",
            "pointer-argument",
            "null-leq",
            "null-arith-eq",
            "int-field",
            "int-argument",
        ],
    )
    def test_constant_of_the_other_kind_rejected(self, registry, lhs, msg):
        # both parsers refuse these; built by hand, the first three were
        # VALID, and 1=null reached the pure solver as a pointer equality
        with pytest.raises(UnsupportedFragment, match=re.escape(msg)):
            prove(Entailment(lhs, heap()), registry)

    def test_constant_of_the_other_kind_rejected_on_the_right(self, registry):
        premise = heap((PointsTo(x, "c1", (NULL,)),), (PtrNeq(x, NULL),))
        ent = Entailment(premise, heap((PointsTo(x, "c1", (IntLit(4),)),)))
        with pytest.raises(UnsupportedFragment, match="literal 4 used as a pointer"):
            prove(ent, registry)

    def test_root_second_registry_rejected(self, registry):
        # the root-second list ll(seg F, root r), built by hand: the rules
        # read an occurrence's root as argument 0, so it must be refused
        r, f, X = Var("r"), Var("F"), Var("X")
        lr = InductiveDef(
            "lr",
            (Param("F", Role.SEG), Param("r", Role.ROOT)),
            RecBranch(
                exists=("X",),
                head=PointsTo(r, "c1", (X,)),
                matrix=(),
                rec=PredOcc("lr", (f, X)),
                order=None,
                arith=(),
            ),
        )
        reg = Registry(sorts=dict(registry.sorts), preds={"lr": lr})
        ent = Entailment(heap((PredOcc("lr", (NULL, x)),)), heap())
        with pytest.raises(UnsupportedFragment, match="the root parameter must come first"):
            prove(ent, reg)

    def test_node_budget_enforced(self, registry):
        with pytest.raises(ResourceLimit):
            prove(golden_entailment(), registry, node_budget=3)


def test_rejected_proof_raises(registry, monkeypatch):
    monkeypatch.setattr(
        engine, "check_cyclic_soundness", lambda tree, reg: ["bud 12: forged"]
    )
    with pytest.raises(UnsoundProof, match="bud 12: forged"):
        prove(golden_entailment(), registry)


def unfiltered_link_back(tree, leaf_id, reg):
    """link_back as it was before ancestors were filtered by skeleton:
    every ancestor with a new spatial tuple is unified with the leaf."""
    ent = tree.node(leaf_id).ent
    bud = ent.lhs.spatial
    if not any(a.unfold > 0 for _, a in ent.lhs.pred_occs()):
        return None
    last = None
    cands = []
    for anc in tree.ancestors(leaf_id):
        comp = anc.ent.lhs.spatial
        if comp is not last:
            last = comp
            cands = [
                (sigma, match)
                for sigma, match in _spatial_unifiers(bud, comp)
                if any(
                    isinstance(a, PredOcc)
                    and isinstance(b, PredOcc)
                    and a.unfold > b.unfold
                    for a, b in ((bud[i], comp[j]) for i, j in match.items())
                )
            ]
        for sigma, match in cands:
            if _link_conditions(ent, anc.ent, sigma):
                return anc.id, sigma, match
    return None


def checked_link_back(calls):
    """link_back that asserts the unfiltered scan's answer, recording for
    each call whether it found a link."""

    def check(tree, leaf_id, reg):
        got = link_back(tree, leaf_id, reg)
        assert got == unfiltered_link_back(tree, leaf_id, reg)
        calls.append(got is not None)
        return got

    return check


def test_link_back_matches_reference_on_suite_and_chain(registry):
    calls = []
    sequents = [s for _, s, _ in SUITE] + [chain_sequent(n) for n in range(1, 17)]
    with mock.patch.object(engine, "link_back", checked_link_back(calls)):
        for sequent in sequents:
            prove(parse_query(sequent), registry)
    assert sum(calls) >= sum(range(1, 17)) and not all(calls)


@given(entailments())
@settings(max_examples=100, deadline=None)
def test_link_back_matches_reference_on_generated_inputs(e):
    with mock.patch.object(engine, "link_back", checked_link_back([])):
        try:
            prove(e, make_registry(), node_budget=3000)
        except (UnsupportedFragment, ResourceLimit):
            pass


# ------------------------------------- Inconsistency on nested occurrences

# ROADMAP item 13: `defs.base_of` materializes the matrix occurrence
# e(Z, null, 0, 0) as nonempty, and a nonempty e is unsatisfiable, since
# lo(_, null, 1, 0) is; an empty one holds with Z = null. So the left side
# is satisfiable, by the one cell x->c(null, 0, null), but Inconsistency
# closes it.
NESTED_EMPTY = r"""
data c { c next; int v; c down; }
pred lo(root r, seg F, src mi, tgt ma) :=
     emp /\ r=F /\ mi=ma
  \/ exists X, m1. r->c(X, m1, null) * lo(X, F, m1, ma) /\ r!=F /\ mi<=m1;
pred e(root r, seg F, src mi, tgt ma) :=
     emp /\ r=F /\ mi=ma
  \/ exists X, m1, Z. r->c(X, m1, Z) * lo(Z, null, 1, 0) * e(X, F, m1, ma) /\ r!=F /\ mi<=m1;
pred w(root r, seg F) :=
     emp /\ r=F
  \/ exists X, Z. r->c(X, 0, Z) * e(Z, null, 0, 0) * w(X, F) /\ r!=F;
check w(x, null) /\ x!=null |- emp
"""


def test_nested_empty_occurrence_has_a_countermodel():
    pf = parse_native(NESTED_EMPTY)
    got = oracle_entails(pf.query, pf.registry, Bound(4, 6))
    assert not got.bounded_valid
    assert confirm_countermodel(got.counter, pf.query, pf.registry)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 13: defs.base_of materializes nested occurrences as nonempty",
)
def test_nested_empty_occurrence_is_not_valid():
    pf = parse_native(NESTED_EMPTY)
    assert not prove(pf.query, pf.registry).valid
