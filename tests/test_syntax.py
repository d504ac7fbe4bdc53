"""Symmetric pure atoms: equality and hash ignore operand order, never the
atom's kind, and printing keeps the order the atom was written in.

The keyed lookups of a symbolic heap and the substitution that skips
untouched atoms agree with the plain scans they replace."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepent.defs import SortDecl
from sepent.engine import _occ_at
from sepent.syntax import (
    NULL,
    ArithEq,
    ArithLeq,
    IntLit,
    PointsTo,
    PredOcc,
    PtrEq,
    PtrNeq,
    SymbolicHeap,
    Var,
    _match_identical,
    subst_atom,
)

x, y = Var("x"), Var("y")
SYMMETRIC = (PtrEq, PtrNeq, ArithEq)
OPERANDS = [(x, y), (x, NULL), (x, x), (Var("m"), IntLit(3))]


@pytest.mark.parametrize("kind", SYMMETRIC)
@pytest.mark.parametrize("a,b", OPERANDS)
def test_equality_and_hash_ignore_operand_order(kind, a, b):
    assert kind(a, b) == kind(b, a)
    assert hash(kind(a, b)) == hash(kind(b, a))
    assert kind(a, b) in {kind(b, a)}


@pytest.mark.parametrize("a,b", OPERANDS)
def test_kinds_stay_apart(a, b):
    atoms = [kind(a, b) for kind in SYMMETRIC] + [ArithLeq(a, b)]
    for i, p in enumerate(atoms):
        for q in atoms[i + 1 :]:
            assert p != q and q != p
    assert len(set(atoms)) == len(atoms)


def test_different_operands_differ():
    assert PtrNeq(x, y) != PtrNeq(x, NULL)
    assert PtrEq(x, x) != PtrEq(x, y)
    assert ArithLeq(x, y) != ArithLeq(y, x)


@pytest.mark.parametrize("kind", SYMMETRIC)
def test_copies_keep_equality_and_hash(kind):
    a = kind(y, x)
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and hash(b) == hash(a) and str(b) == str(a)


def test_printing_keeps_written_order():
    assert str(PtrNeq(y, x)) == "y!=x"
    assert str(PtrEq(NULL, x)) == "null=x"
    assert str(ArithEq(IntLit(3), x)) == "3=x"


def test_pure_part_membership_is_symmetric():
    h = SymbolicHeap((), (PtrNeq(y, x), ArithEq(x, IntLit(1))))
    assert h.has_pure(PtrNeq(x, y))
    assert not h.has_pure(PtrEq(x, y))
    assert h.add_pure([PtrNeq(x, y), ArithEq(IntLit(1), x)]) is h
    grown = h.add_pure([PtrEq(y, x), PtrNeq(y, x)])
    assert grown.pure == h.pure + (PtrEq(y, x),)


def test_variables_compare_and_hash_by_name():
    v = Var("x")
    assert v == x and hash(v) == hash(x) and v is x
    assert v != y and v != NULL and NULL != v and v != IntLit(0)
    assert v != "x" and "x" != v  # a name is not a variable
    assert v != SortDecl("x", ())  # nor is anything else named so
    assert {v: 1}[Var("x")] == 1 and len({x, Var("x"), y}) == 2
    for w in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert w is v and w == v and hash(w) == hash(v) and str(w) == "x"
    assert repr(v) == "Var(name='x')"
    with pytest.raises(AttributeError):
        v.name = "y"
    assert not hasattr(v, "__dict__")  # slots


# ------------------------------------------- keyed lookups against plain scans

# Few names, so that atoms repeat, occurrences differ only in their unfold
# numbers, and a cell and an occurrence stand at one root.
_TERMS = st.sampled_from([Var("x"), Var("y"), Var("F#1"), NULL])
_OCCS = st.builds(
    PredOcc,
    st.sampled_from(["ll", "lls"]),
    st.tuples(_TERMS, _TERMS),
    st.integers(0, 2),
)
_CELLS = st.builds(
    PointsTo, _TERMS, st.sampled_from(["c1", "c2"]), st.tuples(_TERMS)
)
_SPATIAL = st.lists(st.one_of(_OCCS, _CELLS), max_size=6).map(tuple)
_DATA = st.sampled_from([Var("m"), Var("n"), IntLit(1)])
_PURE = st.lists(
    st.one_of(
        st.builds(PtrEq, _TERMS, _TERMS),
        st.builds(PtrNeq, _TERMS, _TERMS),
        st.builds(ArithLeq, _DATA, _DATA),
    ),
    max_size=8,
).map(tuple)


def reference_same(a, b):
    if isinstance(a, PredOcc) and isinstance(b, PredOcc):
        return a.pred == b.pred and a.args == b.args
    return a == b


def reference_match(lhs, rhs):
    """The nested-loop greedy: each right atom in order takes the lowest
    unused left index whose atom is the same up to unfolding."""
    used, out = set(), {}
    for j, b in enumerate(rhs):
        for i, a in enumerate(lhs):
            if i not in used and reference_same(a, b):
                used.add(i)
                out[j] = i
                break
    return out


@given(_SPATIAL, _SPATIAL)
def test_keyed_match_is_the_nested_greedy(lhs, rhs):
    assert _match_identical(lhs, rhs) == reference_match(lhs, rhs)
    # a side against itself reversed, with every unfold number changed
    twin = tuple(
        a.with_unfold(a.unfold + 1) if isinstance(a, PredOcc) else a
        for a in reversed(lhs)
    )
    assert _match_identical(lhs, twin) == reference_match(lhs, twin)


@given(_SPATIAL)
def test_root_maps_are_the_first_match_scan(spatial):
    heap = SymbolicHeap(spatial)
    for root in (Var("x"), Var("y"), Var("F#1"), NULL, Var("absent")):
        first = next((a for a in spatial if a.root == root), None)
        assert heap.atom_at_root(root) is first
        occ = next(
            (
                (i, a)
                for i, a in enumerate(spatial)
                if isinstance(a, PredOcc) and a.root == root
            ),
            None,
        )
        got = _occ_at(heap, root)
        assert got == occ and (got is None or got[1] is occ[1])


@given(
    _SPATIAL,
    _PURE,
    st.dictionaries(
        st.sampled_from(["x", "y", "F#1", "m", "unused"]),
        st.sampled_from([Var("y"), Var("z"), NULL, IntLit(3)]),
        max_size=3,
    ),
)
def test_subst_is_subst_atom_on_every_atom(spatial, pure, sub):
    got = SymbolicHeap(spatial, pure).subst(sub)
    want = tuple(subst_atom(p, sub) for p in pure)
    assert got.pure == want
    assert [str(p) for p in got.pure] == [str(p) for p in want]
    assert got.spatial == tuple(a.subst(sub) for a in spatial)
    for before, after in zip(pure, got.pure):
        names = {t.name for t in (before.lhs, before.rhs) if isinstance(t, Var)}
        if not names & sub.keys():
            assert after is before
