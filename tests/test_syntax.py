"""Symmetric pure atoms: equality and hash ignore operand order, never the
atom's kind, and printing keeps the order the atom was written in."""

import copy
import pickle

import pytest

from sepent.defs import SortDecl
from sepent.syntax import (
    NULL,
    ArithEq,
    ArithLeq,
    IntLit,
    PtrEq,
    PtrNeq,
    SymbolicHeap,
    Var,
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
