"""Pure-fragment solver: satisfiability, entailment, and model extraction."""

import ast
from pathlib import Path

from hypothesis import example, given, strategies as st

import sepent.pure
from sepent.oracle import eval_pure_atom
from sepent.pure import (
    _bounds_of,
    _lit_bounds,
    _ptr_consistent,
    _ptr_state,
    _relax,
    _strict_negation,
    arith_model,
    entails,
    entails_all,
    pointer_model,
    satisfiable,
    status_of_pair,
)
from sepent.syntax import ArithEq, ArithLeq, IntLit, NULL, PtrEq, PtrNeq, Var

x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")
a, b, c, d = Var("a"), Var("b"), Var("c"), Var("d")


# The entry points as they were before PureContext: every query rebuilds
# the union-find and the bounds from the atoms.


def reference_satisfiable(atoms):
    uf, diseqs = _ptr_state(atoms)
    if not _ptr_consistent(uf, diseqs):
        return False
    return _relax(_bounds_of(atoms)) is not None


def reference_entails(atoms, goal):
    if not reference_satisfiable(atoms):
        return True
    if isinstance(goal, PtrEq):
        uf, _ = _ptr_state(atoms)
        return uf.find(goal.lhs) == uf.find(goal.rhs)
    if isinstance(goal, PtrNeq):
        uf, diseqs = _ptr_state(atoms)
        uf.union(goal.lhs, goal.rhs)
        return not _ptr_consistent(uf, diseqs)
    base = _bounds_of(atoms) + _lit_bounds(goal)
    return all(
        _relax(base + case) is None for case in _strict_negation(goal)
    )


def reference_status_of_pair(atoms, a, b):
    if reference_entails(atoms, PtrEq(a, b)):
        return "eq"
    if reference_entails(atoms, PtrNeq(a, b)):
        return "neq"
    return "unknown"


def test_empty_is_satisfiable():
    assert satisfiable(())


def test_eq_neq_clash_unsat():
    assert not satisfiable((PtrEq(x, y), PtrNeq(y, x)))


def test_self_diseq_unsat():
    assert not satisfiable((PtrNeq(x, x),))
    assert not satisfiable((PtrNeq(NULL, NULL),))


def test_transitive_eq_chain():
    atoms = (PtrEq(x, y), PtrEq(y, z))
    assert entails(atoms, PtrEq(x, z))
    assert not satisfiable(atoms + (PtrNeq(x, z),))


def test_leq_antisymmetry_gives_eq():
    assert entails((ArithLeq(a, b), ArithLeq(b, a)), ArithEq(a, b))
    assert not entails((ArithLeq(a, b),), ArithEq(a, b))


def test_literal_bounds():
    assert entails((), ArithLeq(IntLit(1), IntLit(2)))
    assert not entails((), ArithLeq(IntLit(2), IntLit(1)))
    assert not satisfiable((ArithLeq(a, IntLit(0)), ArithLeq(IntLit(1), a)))


def test_strict_window_forces_value():
    atoms = (ArithLeq(IntLit(3), a), ArithLeq(a, IntLit(3)))
    assert entails(atoms, ArithEq(a, IntLit(3)))


def test_unsat_context_entails_anything():
    atoms = (PtrNeq(x, x),)
    assert entails_all(atoms, [PtrEq(x, y), ArithLeq(b, a)])


def test_status_of_pair():
    assert status_of_pair((PtrEq(x, y),), x, y) == "eq"
    assert status_of_pair((PtrNeq(x, y),), x, y) == "neq"
    assert status_of_pair((), x, y) == "unknown"
    assert status_of_pair((PtrNeq(x, NULL),), x, NULL) == "neq"


def test_pointer_model_respects_classes():
    m = pointer_model((PtrEq(x, y), PtrNeq(x, z)), ("x", "y", "z"))
    assert m["x"] == m["y"] != m["z"]
    assert m["x"] != 0  # nothing ties x to null


def test_pointer_model_null_class_is_zero():
    m = pointer_model((PtrEq(x, NULL),), ("x", "y"))
    assert m["x"] == 0 and m["y"] != 0


def test_arith_model_meets_bounds():
    m = arith_model((ArithLeq(IntLit(2), a), ArithLeq(a, b)), ("a", "b"))
    assert 2 <= m["a"] <= m["b"]


_PTR_TERMS = st.sampled_from([x, y, z, NULL])
_ARITH_TERMS = st.sampled_from([a, b, c, IntLit(-1), IntLit(0), IntLit(2)])


@st.composite
def _atoms(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return PtrEq(draw(_PTR_TERMS), draw(_PTR_TERMS))
    if kind == 1:
        return PtrNeq(draw(_PTR_TERMS), draw(_PTR_TERMS))
    if kind == 2:
        return ArithEq(draw(_ARITH_TERMS), draw(_ARITH_TERMS))
    return ArithLeq(draw(_ARITH_TERMS), draw(_ARITH_TERMS))


@given(st.lists(_atoms(), max_size=8).map(tuple))
def test_models_satisfy_their_atoms(atoms):
    if not satisfiable(atoms):
        return
    env = dict(pointer_model(atoms, ("x", "y", "z")))
    env.update(arith_model(atoms, ("a", "b", "c")))
    assert all(eval_pure_atom(at, env) for at in atoms)


@given(st.lists(_atoms(), max_size=6).map(tuple), _atoms())
def test_entailment_is_extension_stable(atoms, goal):
    # adding the goal to a context that entails it must stay satisfiable
    if satisfiable(atoms) and entails(atoms, goal):
        assert satisfiable(atoms + (goal,))


# Goals may also name w and d, which the atoms never mention.
_GOAL_PTR_TERMS = st.sampled_from([x, y, z, w, NULL])
_GOAL_ARITH_TERMS = st.sampled_from([a, b, c, d, IntLit(-1), IntLit(0), IntLit(2)])


@st.composite
def _goals(draw):
    kind = draw(st.integers(0, 3))
    if kind < 2:
        lhs = draw(_GOAL_PTR_TERMS)
        rhs = draw(st.one_of(st.just(lhs), _GOAL_PTR_TERMS))
        return (PtrEq, PtrNeq)[kind](lhs, rhs)
    lhs = draw(_GOAL_ARITH_TERMS)
    rhs = draw(st.one_of(st.just(lhs), _GOAL_ARITH_TERMS))
    return (ArithEq, ArithLeq)[kind - 2](lhs, rhs)


@given(st.lists(_atoms(), max_size=8).map(tuple), _goals())
@example((PtrEq(x, y), PtrNeq(y, x)), PtrEq(w, NULL))  # unsatisfiable
@example((ArithLeq(a, IntLit(-1)), ArithLeq(IntLit(0), a)), PtrNeq(x, x))
@example((PtrNeq(x, NULL),), PtrNeq(w, NULL))  # unmentioned variable
@example((PtrEq(x, y),), PtrEq(w, w))  # reflexive
@example((PtrNeq(x, y),), PtrNeq(w, w))
@example((ArithLeq(a, b),), ArithEq(d, d))
def test_context_agrees_with_reference(atoms, goal):
    assert satisfiable(atoms) == reference_satisfiable(atoms)
    assert entails(atoms, goal) == reference_entails(atoms, goal)
    if isinstance(goal, (PtrEq, PtrNeq)):
        assert status_of_pair(atoms, goal.lhs, goal.rhs) == (
            reference_status_of_pair(atoms, goal.lhs, goal.rhs)
        )


def test_pure_caches_are_bounded():
    """Every memo in pure.py names a literal integer size, so a long batch
    cannot keep every pure part it has seen alive."""
    tree = ast.parse(Path(sepent.pure.__file__).read_text(encoding="utf-8"))

    def name(node):
        if isinstance(node, ast.Attribute):
            return node.attr
        return node.id if isinstance(node, ast.Name) else None

    sized = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and name(node.func) == "lru_cache":
            size = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "maxsize"), None
            )
            assert isinstance(size, ast.Constant), ast.unparse(node)
            assert type(size.value) is int, ast.unparse(node)
            sized.add(id(node.func))
    for node in ast.walk(tree):
        if name(node) in ("lru_cache", "cache"):
            assert id(node) in sized, f"line {node.lineno}: {ast.unparse(node)}"
