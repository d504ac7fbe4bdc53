"""Shared fixtures: the bundled sorts and inductive definitions.

The registry here is built programmatically so the core modules can be
tested without the parser; parser tests check that parsing the same
definitions from text reproduces this registry.
"""

import itertools

import pytest
from hypothesis import strategies as st

from sepent.defs import InductiveDef, Param, RecBranch, Registry, Role, SortDecl
from sepent.oracle import HeapModel, holds, kinds_of, models_of
from sepent.syntax import (
    ArithEq,
    ArithLeq,
    Entailment,
    IntLit,
    NULL,
    PointsTo,
    PredOcc,
    PtrEq,
    PtrNeq,
    SymbolicHeap,
    Var,
)


def _p(name):
    return Var(name)


# Atoms `make_registry()` cannot interpret, one per shape, each with the
# problem `defs.shape_problems` reports; the parsers refuse them all.
MALFORMED_ATOMS = {
    "field-count": (
        PointsTo(Var("x"), "c1", (Var("y"), Var("z"))),
        "c1 has 1 fields",
    ),
    "unknown-sort": (
        PointsTo(Var("x"), "nosuch", (Var("y"),)),
        "unknown sort 'nosuch'",
    ),
    "unknown-predicate": (
        PredOcc("nosuch", (Var("x"), Var("y"))),
        "unknown predicate 'nosuch'",
    ),
    "argument-count": (
        PredOcc("ll", (Var("x"), Var("y"), Var("z"))),
        "ll expects 2 arguments",
    ),
}


def make_registry() -> Registry:
    sorts = {
        "c1": SortDecl("c1", (("next", "c1"),)),
        "c2": SortDecl("c2", (("next", "c2"), ("val", "int"))),
        "c3": SortDecl("c3", (("next", "c3"), ("down", "c1"))),
        "c4": SortDecl("c4", (("next", "c4"), ("val", "int"))),
        "c5": SortDecl("c5", (("n3", "c5"), ("n2", "c5"), ("n1", "c5"))),
        "ct": SortDecl("ct", (("left", "ct"), ("right", "ct"))),
    }
    preds = {}

    # plain list segment
    preds["ll"] = InductiveDef(
        "ll",
        (Param("r", Role.ROOT), Param("F", Role.SEG)),
        RecBranch(
            exists=("X",),
            head=PointsTo(_p("r"), "c1", (_p("X"),)),
            matrix=(),
            rec=PredOcc("ll", (_p("X"), _p("F"))),
            order=None,
            arith=(),
        ),
    )

    # list whose every value equals the carried one
    preds["lla"] = InductiveDef(
        "lla",
        (Param("r", Role.ROOT), Param("F", Role.SEG), Param("u", Role.TRANS, "int")),
        RecBranch(
            exists=("X",),
            head=PointsTo(_p("r"), "c2", (_p("X"), _p("u"))),
            matrix=(),
            rec=PredOcc("lla", (_p("X"), _p("F"), _p("u"))),
            order=None,
            arith=(),
        ),
    )

    # sorted list segment: stored values ascend from src to tgt
    preds["lls"] = InductiveDef(
        "lls",
        (
            Param("r", Role.ROOT),
            Param("F", Role.SEG),
            Param("mi", Role.SRC, "int"),
            Param("ma", Role.TGT, "int"),
        ),
        RecBranch(
            exists=("X", "m1"),
            head=PointsTo(_p("r"), "c4", (_p("X"), _p("m1"))),
            matrix=(),
            rec=PredOcc("lls", (_p("X"), _p("F"), _p("m1"), _p("ma"))),
            order=ArithLeq(_p("mi"), _p("m1")),
            arith=(),
        ),
    )

    # list whose values are bounded below by the border
    preds["llb"] = InductiveDef(
        "llb",
        (Param("r", Role.ROOT), Param("F", Role.SEG), Param("b", Role.BORDER, "int")),
        RecBranch(
            exists=("X", "d"),
            head=PointsTo(_p("r"), "c4", (_p("X"), _p("d"))),
            matrix=(),
            rec=PredOcc("llb", (_p("X"), _p("F"), _p("b"))),
            order=None,
            arith=(ArithLeq(_p("b"), _p("d")),),
        ),
    )

    # list of lists: each node hangs a plain list reaching the border
    preds["nll"] = InductiveDef(
        "nll",
        (Param("r", Role.ROOT), Param("F", Role.SEG), Param("B", Role.BORDER)),
        RecBranch(
            exists=("X", "Z"),
            head=PointsTo(_p("r"), "c3", (_p("X"), _p("Z"))),
            matrix=(PredOcc("ll", (_p("Z"), _p("B"))),),
            rec=PredOcc("nll", (_p("X"), _p("F"), _p("B"))),
            order=None,
            arith=(),
        ),
    )

    # three-level skip list
    preds["skl1"] = InductiveDef(
        "skl1",
        (Param("r", Role.ROOT), Param("F", Role.SEG)),
        RecBranch(
            exists=("X",),
            head=PointsTo(_p("r"), "c5", (NULL, NULL, _p("X"))),
            matrix=(),
            rec=PredOcc("skl1", (_p("X"), _p("F"))),
            order=None,
            arith=(),
        ),
    )
    preds["skl2"] = InductiveDef(
        "skl2",
        (Param("r", Role.ROOT), Param("F", Role.SEG)),
        RecBranch(
            exists=("X", "Z1"),
            head=PointsTo(_p("r"), "c5", (NULL, _p("X"), _p("Z1"))),
            matrix=(PredOcc("skl1", (_p("Z1"), _p("X"))),),
            rec=PredOcc("skl2", (_p("X"), _p("F"))),
            order=None,
            arith=(),
        ),
    )
    preds["skl3"] = InductiveDef(
        "skl3",
        (Param("r", Role.ROOT), Param("F", Role.SEG)),
        RecBranch(
            exists=("X", "Z2", "Z1"),
            head=PointsTo(_p("r"), "c5", (_p("X"), _p("Z2"), _p("Z1"))),
            matrix=(
                PredOcc("skl2", (_p("Z2"), _p("X"))),
                PredOcc("skl1", (_p("Z1"), _p("Z2"))),
            ),
            rec=PredOcc("skl3", (_p("X"), _p("F"))),
            order=None,
            arith=(),
        ),
    )

    # binary tree with all leaves reaching the border
    preds["tree"] = InductiveDef(
        "tree",
        (Param("r", Role.ROOT), Param("B", Role.SEG)),
        RecBranch(
            exists=("L", "R"),
            head=PointsTo(_p("r"), "ct", (_p("L"), _p("R"))),
            matrix=(PredOcc("tree", (_p("L"), _p("B"))),),
            rec=PredOcc("tree", (_p("R"), _p("B"))),
            order=None,
            arith=(),
        ),
    )

    return Registry(sorts=sorts, preds=preds)


# The same sorts and definitions in the textual input format.  Parser tests
# assert that parsing this reproduces make_registry() exactly; suite modules
# reuse it to state entailments as readable one-liners.
NATIVE_CORPUS = """\
data c1 { c1 next; }
data c2 { c2 next; int val; }
data c3 { c3 next; c1 down; }
data c4 { c4 next; int val; }
data c5 { c5 n3; c5 n2; c5 n1; }
data ct { ct left; ct right; }

pred ll(root r, seg F) :=
     emp /\\ r=F
  \\/ exists X. r->c1(X) * ll(X, F) /\\ r!=F;

pred lla(root r, seg F, trans u) :=
     emp /\\ r=F
  \\/ exists X. r->c2(X, u) * lla(X, F, u) /\\ r!=F;

pred lls(root r, seg F, src mi, tgt ma) :=
     emp /\\ r=F /\\ mi=ma
  \\/ exists X, m1. r->c4(X, m1) * lls(X, F, m1, ma) /\\ r!=F /\\ mi<=m1;

pred llb(root r, seg F, border b) :=
     emp /\\ r=F
  \\/ exists X, d. r->c4(X, d) * llb(X, F, b) /\\ r!=F /\\ b<=d;

pred nll(root r, seg F, border B) :=
     emp /\\ r=F
  \\/ exists X, Z. r->c3(X, Z) * ll(Z, B) * nll(X, F, B) /\\ r!=F;

pred skl1(root r, seg F) :=
     emp /\\ r=F
  \\/ exists X. r->c5(null, null, X) * skl1(X, F) /\\ r!=F;

pred skl2(root r, seg F) :=
     emp /\\ r=F
  \\/ exists X, Z1. r->c5(null, X, Z1) * skl1(Z1, X) * skl2(X, F) /\\ r!=F;

pred skl3(root r, seg F) :=
     emp /\\ r=F
  \\/ exists X, Z2, Z1. r->c5(X, Z2, Z1) * skl2(Z2, X) * skl1(Z1, Z2) * skl3(X, F) /\\ r!=F;

pred tree(root r, seg B) :=
     emp /\\ r=B
  \\/ exists L, R. r->ct(L, R) * tree(L, B) * tree(R, B) /\\ r!=B;
"""


def parse_query(sequent: str):
    """Entailment from a one-line 'lhs |- rhs' over the bundled definitions."""
    from sepent.parser import parse_native

    return parse_native(NATIVE_CORPUS + "\ncheck " + sequent + "\n").query


@pytest.fixture(scope="session")
def registry() -> Registry:
    return make_registry()


_PTRS = (Var("x"), Var("y"), Var("z"), NULL)
_INTS = (Var("a"), Var("b"), IntLit(0), IntLit(2))


@st.composite
def entailments(draw, lhs_atoms=3, rhs_atoms=2):
    """Small entailments over `make_registry()`: cells of every sort,
    occurrences of every predicate and pure atoms of both kinds, each
    argument drawn from the pointer or integer terms its position needs.
    The right side names only variables of the left, as `prove` demands."""
    reg = make_registry()

    def side(n, ptrs, ints):
        def term(kind):
            return draw(st.sampled_from(ints if kind == "int" else ptrs))

        def spatial_atom():
            if draw(st.booleans()):
                d = reg.preds[draw(st.sampled_from(sorted(reg.preds)))]
                return PredOcc(d.name, tuple(term(p.kind) for p in d.params))
            sort = reg.sorts[draw(st.sampled_from(sorted(reg.sorts)))]
            fields = tuple(
                term("int" if t == "int" else "ptr") for _, t in sort.fields
            )
            return PointsTo(draw(st.sampled_from(ptrs[:-1] or ptrs)), sort.name, fields)

        def pure_atom():
            k = draw(st.integers(0, 3))
            if k < 2:
                return (PtrEq, PtrNeq)[k](term("ptr"), term("ptr"))
            return (ArithEq, ArithLeq)[k - 2](term("int"), term("int"))

        spatial = tuple(spatial_atom() for _ in range(draw(st.integers(0, n))))
        pure = tuple(pure_atom() for _ in range(draw(st.integers(0, n))))
        return SymbolicHeap(spatial, pure)

    lhs = side(lhs_atoms, _PTRS, _INTS)
    named = lhs.fv()
    rhs = side(
        rhs_atoms,
        tuple(t for t in _PTRS if not isinstance(t, Var) or t.name in named),
        tuple(t for t in _INTS if not isinstance(t, Var) or t.name in named),
    )
    return Entailment(lhs, rhs)


def disjunction_equivalent(heap, branches, reg, bound) -> bool:
    """Model-set equality between a formula and the union of its rewrite
    branches, up to the bound.

    Rewrites only add pure atoms or eliminate variables by substitution, so
    branch variables are a subset of the input's.  For the branch-to-input
    direction an eliminated variable is re-quantified: some extension of the
    branch stack over the bound's domains must satisfy the input.
    """
    for m in models_of(heap, reg, bound):
        if not any(holds(m, b, reg, bound) for b in branches):
            return False
    kinds = kinds_of(heap, reg)
    names = sorted(heap.fv())
    locs = range(bound.max_locs + 1)
    data = bound.data_range()
    for b in branches:
        for m in models_of(b, reg, bound):
            missing = [n for n in names if n not in m.stack]
            domains = [locs if kinds.get(n, "ptr") == "ptr" else data for n in missing]
            ptrs = m.ptr_vars | {n for n in missing if kinds.get(n, "ptr") == "ptr"}
            for vals in itertools.product(*domains):
                stack = dict(m.stack)
                stack.update(zip(missing, vals))
                if holds(HeapModel(stack, m.heap, frozenset(ptrs)), heap, reg, bound):
                    break
            else:
                return False
    return True
