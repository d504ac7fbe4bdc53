"""Definition template conformance and unfolding."""

import ast
from pathlib import Path

import pytest

from sepent.defs import (
    InductiveDef,
    Param,
    RecBranch,
    Registry,
    Role,
    SortDecl,
    base_instance,
    check_wellformed,
    known_problems,
    rec_instance,
)
from sepent.syntax import FreshNames, PointsTo, PredOcc, PtrEq, PtrNeq, NULL, Var

r, F, X, w = Var("r"), Var("F"), Var("X"), Var("w")


def test_bundled_registry_is_wellformed(registry):
    assert check_wellformed(registry) == []


def test_existential_not_stored_fails_c1(registry):
    # a list whose second existential is never a head field
    bad = InductiveDef(
        "ell",
        (Param("r", Role.ROOT), Param("F", Role.SEG)),
        RecBranch(
            exists=("X", "w"),
            head=PointsTo(r, "c1", (X,)),
            matrix=(),
            rec=PredOcc("ell", (X, F)),
            order=None,
            arith=(),
        ),
    )
    reg = Registry(sorts=dict(registry.sorts), preds={"ell": bad})
    problems = check_wellformed(reg)
    assert any("C1" in p and "w" in p for p in problems)


def test_pointer_atom_in_recursive_branch_fails(registry):
    # the parsers refuse it; built by hand, its materialization would hand
    # the pure solver a pointer equality, which it refuses
    bad = InductiveDef(
        "eql",
        (Param("r", Role.ROOT), Param("F", Role.SEG)),
        RecBranch(
            exists=("X",),
            head=PointsTo(r, "c1", (X,)),
            matrix=(),
            rec=PredOcc("eql", (X, F)),
            order=None,
            arith=(PtrEq(X, NULL),),
        ),
    )
    reg = Registry(sorts=dict(registry.sorts), preds={"eql": bad})
    assert check_wellformed(reg) == [
        "eql: unexpected pointer atom X=null in recursive branch"
    ]


def carrying(name, other):
    """A list of c3 cells whose down field holds an `other` structure."""
    return InductiveDef(
        name,
        (Param("r", Role.ROOT), Param("F", Role.SEG)),
        RecBranch(
            exists=("X", "Z"),
            head=PointsTo(r, "c3", (X, Var("Z"))),
            matrix=(PredOcc(other, (Var("Z"), NULL)),),
            rec=PredOcc(name, (X, F)),
            order=None,
            arith=(),
        ),
    )


def test_mutual_recursion_fails_c3(registry):
    reg = Registry(
        sorts=dict(registry.sorts),
        preds={"p1": carrying("p1", "p2"), "p2": carrying("p2", "p1")},
    )
    problems = check_wellformed(reg)
    assert any("C3" in p for p in problems)


def test_c3_names_a_predicate_on_the_cycle(registry):
    # a only reaches the cycle p1 <-> p2; the walk enters it at p1
    reg = Registry(
        sorts=dict(registry.sorts),
        preds={"a": carrying("a", "p1"), "p1": carrying("p1", "p2"), "p2": carrying("p2", "p1")},
    )
    assert check_wellformed(reg) == ["C3 violated: p1 participates in mutual recursion"]


def test_self_matrix_is_allowed(registry):
    # tree carries itself in the matrix; only mutual recursion is banned
    assert "tree" in registry.preds
    assert check_wellformed(registry) == []


def test_matrix_root_must_be_head_field(registry):
    bad = InductiveDef(
        "q",
        (Param("r", Role.ROOT), Param("F", Role.SEG)),
        RecBranch(
            exists=("X", "Z"),
            head=PointsTo(r, "c1", (X,)),
            matrix=(PredOcc("ll", (Var("Z"), F)),),
            rec=PredOcc("q", (X, F)),
            order=None,
            arith=(),
        ),
    )
    reg = Registry(sorts=dict(registry.sorts), preds={"ll": registry.preds["ll"], "q": bad})
    problems = check_wellformed(reg)
    assert any("C2" in p for p in problems)


def test_known_problems_follow_the_entries(registry):
    # check_wellformed's answer is reused only while the registry's
    # entries are the ones it was computed from.
    reg = Registry(sorts=dict(registry.sorts), preds=dict(registry.preds))
    assert reg.checked is None
    assert known_problems(reg) == [] and reg.checked is not None
    ll = reg.preds["ll"]
    reg.preds["ll"] = InductiveDef("ll", ll.params[::-1], ll.rec)
    assert known_problems(reg) == ["ll: the root parameter must come first"]
    reg.preds["ll"] = ll
    assert known_problems(reg) == []
    del reg.sorts["c1"]
    assert any("unknown sort c1" in p for p in known_problems(reg))
    kept = reg.checked
    assert known_problems(reg) == list(kept[1]) and reg.checked is kept


def test_unfold_numbers(registry):
    occ = PredOcc("nll", (Var("x"), NULL, Var("B")), unfold=1)
    base = base_instance(occ, registry)
    spatial, pure, _ = rec_instance(occ, registry, FreshNames())
    assert base == (PtrEq(Var("x"), NULL),)
    head, matrix, rec = spatial
    assert isinstance(head, PointsTo) and head.root == Var("x")
    assert matrix.pred == "ll" and matrix.unfold == 0
    assert rec.pred == "nll" and rec.unfold == 2
    assert PtrNeq(Var("x"), NULL) in pure


def test_unfold_freshens_existentials(registry):
    occ = PredOcc("ll", (Var("x"), Var("y")))
    fresh = FreshNames()
    sp1, _, _ = rec_instance(occ, registry, fresh)
    sp2, _, _ = rec_instance(occ, registry, fresh)
    assert sp1[0].fields[0] != sp2[0].fields[0]
    assert "#" in sp1[0].fields[0].name


def test_lls_base_branch_equates_order_pair(registry):
    occ = PredOcc("lls", (Var("x"), Var("y"), Var("mi"), Var("ma")))
    base = base_instance(occ, registry)
    assert len(base) == 2  # x=y plus mi=ma


LAYOUT_NAMES = {"seg_index", "order_pair", "index_of_role", "Role"}


@pytest.mark.parametrize("module", ["engine.py", "normalize.py"])
def test_rules_leave_parameter_layout_to_defs(module):
    # the rules reach an occurrence's segment and order pair through
    # defs.seg_of and defs.order_of, so defs alone maps roles to positions
    path = Path(__file__).resolve().parents[1] / "src" / "sepent" / module
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.alias):
            used.add(node.asname or node.name)
    assert used & LAYOUT_NAMES == set()
