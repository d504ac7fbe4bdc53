"""Pure-fragment solver: satisfiability, entailment, and model extraction."""

import ast
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import sepent.cli
import sepent.defs
import sepent.engine
import sepent.parser
import sepent.pure
from sepent.oracle import _all_hold, _compile
from sepent.pure import (
    _ZERO,
    Atoms,
    Bound,
    PureContext,
    _relax,
    _strict_negation,
    arith_model,
    entails,
    entails_all,
    pointer_model,
    satisfiable,
    status_of_pair,
)
from sepent.syntax import (
    ArithEq,
    ArithLeq,
    Expr,
    IntLit,
    NULL,
    PtrEq,
    PtrNeq,
    PureAtom,
    Var,
)

x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")
a, b, c, d = Var("a"), Var("b"), Var("c"), Var("d")


def eval_pure_atom(atom: PureAtom, env: dict[str, int]) -> bool:
    """Is the atom true under `env`, as the oracle evaluates it?"""
    return _all_hold((_compile(atom),), env)


# The reference solver: a union-find over the pointer `=` atoms, rebuilt
# from the atoms by every query and every model, as the solver was before
# it read normal left sides only. It decides contexts that hold a pointer
# `=` too, and `normal_form` asks it about heaps that still hold one.


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[Expr, Expr] = {}

    def add(self, x: Expr) -> None:
        self.parent.setdefault(x, x)

    def find(self, x: Expr) -> Expr:
        self.add(x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: Expr, b: Expr) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _ptr_state(atoms: Atoms) -> tuple[_UnionFind, list[tuple[Expr, Expr]]]:
    uf = _UnionFind()
    uf.add(NULL)
    diseqs: list[tuple[Expr, Expr]] = []
    for a in atoms:
        if isinstance(a, PtrEq):
            uf.union(a.lhs, a.rhs)
        elif isinstance(a, PtrNeq):
            uf.add(a.lhs)
            uf.add(a.rhs)
            diseqs.append((a.lhs, a.rhs))
    return uf, diseqs


def _ptr_consistent(uf: _UnionFind, diseqs: list[tuple[Expr, Expr]]) -> bool:
    return all(uf.find(x) != uf.find(y) for x, y in diseqs)


def _bounds_of(atoms: Atoms) -> list[Bound]:
    out: list[Bound] = []
    lits: set[int] = set()

    def note(e: Expr) -> None:
        if isinstance(e, IntLit):
            lits.add(e.value)

    for a in atoms:
        if isinstance(a, ArithEq):
            note(a.lhs), note(a.rhs)
            out.append((a.lhs, a.rhs, 0))
            out.append((a.rhs, a.lhs, 0))
        elif isinstance(a, ArithLeq):
            note(a.lhs), note(a.rhs)
            out.append((a.lhs, a.rhs, 0))
    for k in lits:
        out.append((_ZERO, IntLit(k), k))
        out.append((IntLit(k), _ZERO, -k))
    return out


def _lit_bounds(a: PureAtom) -> list[Bound]:
    extra: set[int] = set()
    for e in (a.lhs, a.rhs):
        if isinstance(e, IntLit):
            extra.add(e.value)
    out: list[Bound] = []
    for k in extra:
        out.append((_ZERO, IntLit(k), k))
        out.append((IntLit(k), _ZERO, -k))
    return out


def reference_arith_model(atoms: Atoms, names: tuple[str, ...] = ()) -> dict[str, int]:
    """One satisfying integer assignment covering at least the given names."""
    dist = _relax(_bounds_of(atoms))
    if dist is None:
        raise ValueError("arithmetic part is unsatisfiable")
    zero = dist[_ZERO]
    out: dict[str, int] = {}
    for node, d in dist.items():
        if isinstance(node, Var):
            out[node.name] = d - zero
    for n in names:
        out.setdefault(n, 0)
    return out


def reference_pointer_model(atoms: Atoms, names: tuple[str, ...] = ()) -> dict[str, int]:
    """Locations for pointer variables: null's class is 0, others distinct."""
    uf, diseqs = _ptr_state(atoms)
    if not _ptr_consistent(uf, diseqs):
        raise ValueError("pointer part is unsatisfiable")
    for n in names:
        uf.add(Var(n))
    all_names = sorted({v.name for v in uf.parent if isinstance(v, Var)} | set(names))
    loc_of_rep: dict[Expr, int] = {uf.find(NULL): 0}
    next_loc = 1
    out: dict[str, int] = {}
    for n in all_names:
        rep = uf.find(Var(n))
        if rep not in loc_of_rep:
            loc_of_rep[rep] = next_loc
            next_loc += 1
        out[n] = loc_of_rep[rep]
    return out


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


def test_self_diseq_unsat():
    assert not satisfiable((PtrNeq(x, x),))
    assert not satisfiable((PtrNeq(NULL, NULL),))


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
    assert status_of_pair((), x, x) == "eq"
    assert status_of_pair((PtrNeq(y, y),), x, z) == "eq"  # unsatisfiable
    assert status_of_pair((PtrNeq(x, y),), x, y) == "neq"
    assert status_of_pair((), x, y) == "unknown"
    assert status_of_pair((PtrNeq(x, NULL),), x, NULL) == "neq"


@pytest.mark.parametrize(
    "query",
    [
        lambda atoms: satisfiable(atoms),
        lambda atoms: entails(atoms, PtrNeq(x, NULL)),
        lambda atoms: entails_all(atoms, [ArithLeq(a, b)]),
        lambda atoms: status_of_pair(atoms, x, z),
        lambda atoms: arith_model(atoms, ("a",)),
        lambda atoms: pointer_model(atoms, ("x",)),
    ],
    ids=[
        "satisfiable",
        "entails",
        "entails_all",
        "status_of_pair",
        "arith_model",
        "pointer_model",
    ],
)
def test_pointer_equality_context_is_refused(query):
    # Normalization substitutes every pointer = away before the solver is
    # asked, so a context holding one is a caller's error, named as such,
    # also where it only extends a memoized context.
    base = (PtrNeq(x, NULL), ArithLeq(a, b))
    sepent.pure._context(base)
    for atoms, eq in (((PtrEq(x, y),), "x=y"), (base + (PtrEq(y, NULL),), "y=null")):
        with pytest.raises(ValueError, match=f"pointer equality {eq} "):
            query(atoms)


def test_arith_model_meets_bounds():
    m = arith_model((ArithLeq(IntLit(2), a), ArithLeq(a, b)), ("a", "b"))
    assert 2 <= m["a"] <= m["b"]


_PTR_TERMS = st.sampled_from([x, y, z, NULL])
_ARITH_TERMS = st.sampled_from([a, b, c, IntLit(-1), IntLit(0), IntLit(2)])


@st.composite
def _atoms(draw, min_kind=0):
    kind = draw(st.integers(min_kind, 3))
    if kind == 0:
        return PtrEq(draw(_PTR_TERMS), draw(_PTR_TERMS))
    if kind == 1:
        return PtrNeq(draw(_PTR_TERMS), draw(_PTR_TERMS))
    if kind == 2:
        return ArithEq(draw(_ARITH_TERMS), draw(_ARITH_TERMS))
    return ArithLeq(draw(_ARITH_TERMS), draw(_ARITH_TERMS))


# What the solver is asked about: pure parts of normal left sides, which
# hold no pointer `=` (goals may be any atom).
_CONTEXT_ATOMS = _atoms(min_kind=1)


@given(st.lists(_CONTEXT_ATOMS, max_size=8).map(tuple))
def test_models_satisfy_their_atoms(atoms):
    if not satisfiable(atoms):
        return
    env = dict(pointer_model(atoms, ("x", "y", "z")))
    env.update(arith_model(atoms, ("a", "b", "c")))
    assert all(eval_pure_atom(at, env) for at in atoms)


@given(st.lists(_CONTEXT_ATOMS, max_size=6).map(tuple), _atoms())
def test_entailment_is_extension_stable(atoms, goal):
    # adding the goal to a context that entails it must stay satisfiable
    if satisfiable(atoms) and entails(atoms, goal):
        if isinstance(goal, PtrEq):  # no context may hold it; it is x=x
            assert reference_satisfiable(atoms + (goal,))
        else:
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


@given(st.lists(_CONTEXT_ATOMS, max_size=8).map(tuple), _goals())
@example((PtrNeq(x, y), PtrNeq(y, y)), PtrEq(w, NULL))  # unsatisfiable
@example((ArithLeq(a, IntLit(-1)), ArithLeq(IntLit(0), a)), PtrNeq(x, x))
@example((PtrNeq(x, NULL),), PtrNeq(w, NULL))  # unmentioned variable
@example((PtrNeq(x, y),), PtrEq(w, w))  # reflexive
@example((PtrNeq(x, y), PtrNeq(y, z)), PtrEq(x, z))
@example((PtrNeq(x, y), PtrNeq(y, z)), PtrNeq(z, x))
@example((PtrNeq(x, y),), PtrNeq(w, w))
@example((ArithLeq(a, b),), ArithEq(d, d))
def test_context_agrees_with_reference(atoms, goal):
    assert satisfiable(atoms) == reference_satisfiable(atoms)
    assert entails(atoms, goal) == reference_entails(atoms, goal)
    if isinstance(goal, (PtrEq, PtrNeq)):
        assert status_of_pair(atoms, goal.lhs, goal.rhs) == (
            reference_status_of_pair(atoms, goal.lhs, goal.rhs)
        )


def _model_items(model, atoms, names):
    """The model's items in order, or ValueError if it has none."""
    try:
        return list(model(atoms, names).items())
    except ValueError:
        return ValueError


_PTR_NAMES = st.lists(st.sampled_from(["x", "y", "z", "w"]), unique=True)
_INT_NAMES = st.lists(st.sampled_from(["a", "b", "c", "d"]), unique=True)


@given(
    st.lists(_CONTEXT_ATOMS, max_size=10).map(tuple),
    _PTR_NAMES.map(tuple),
    _INT_NAMES.map(tuple),
)
@example((PtrNeq(x, y), PtrNeq(y, y), ArithLeq(a, b)), ("w",), ("d",))
@example((ArithLeq(a, IntLit(-1)), ArithLeq(IntLit(0), a), PtrNeq(x, NULL)), (), ())
@example((PtrNeq(z, NULL), PtrNeq(x, y), ArithEq(a, IntLit(2))), ("w", "x"), ("c",))
def test_models_match_reference(atoms, ptr_names, int_names):
    """Both models take the mixed tuple `bad_model` passes and give exactly
    what the old models gave on its pointer and arithmetic atoms alone."""
    ptr_atoms = tuple(a for a in atoms if isinstance(a, (PtrEq, PtrNeq)))
    arith_atoms = tuple(a for a in atoms if isinstance(a, (ArithEq, ArithLeq)))
    assert _model_items(pointer_model, atoms, ptr_names) == _model_items(
        reference_pointer_model, ptr_atoms, ptr_names
    )
    assert _model_items(arith_model, atoms, int_names) == _model_items(
        reference_arith_model, arith_atoms, int_names
    )


_EXTRA = st.lists(_CONTEXT_ATOMS, min_size=1, max_size=4).map(tuple)


@contextmanager
def _counted_builds():
    """The tuples `PureContext` is built from, from scratch, meanwhile."""
    built = []
    real = PureContext.__init__

    def init(self, atoms):
        built.append(atoms)
        real(self, atoms)

    with mock.patch.object(PureContext, "__init__", init):
        yield built


@given(
    st.lists(_CONTEXT_ATOMS, max_size=8).map(tuple),
    _EXTRA,
    _goals(),
    _PTR_NAMES.map(tuple),
    _INT_NAMES.map(tuple),
)
@example(  # the extension makes the bounds infeasible
    (ArithLeq(a, b),),
    (ArithLeq(b, IntLit(-1)), ArithLeq(IntLit(0), a)),
    PtrEq(x, y),
    (),
    ("a", "b"),
)
@example(  # the extension makes the pointer part unsatisfiable
    (PtrNeq(x, y), ArithEq(a, IntLit(2))), (PtrNeq(y, y),), ArithLeq(a, b), ("x",), ()
)
@example(  # an empty prefix, and names no atom mentions
    (), (ArithLeq(c, a), PtrNeq(z, NULL)), ArithLeq(c, IntLit(2)), ("z", "w"), ("c", "d")
)
def test_extended_context_agrees_with_fresh(prefix, extra, goal, ptr_names, int_names):
    """A context extended from its prefix's answers as one built anew."""
    atoms = prefix + extra
    memo = sepent.pure._memo

    def answers():
        out = [
            satisfiable(atoms),
            entails(atoms, goal),
            _model_items(pointer_model, atoms, ptr_names),
            _model_items(arith_model, atoms, int_names),
        ]
        if isinstance(goal, (PtrEq, PtrNeq)):
            out.append(status_of_pair(atoms, goal.lhs, goal.rhs))
        return out

    memo.clear()
    with _counted_builds() as built:
        satisfiable(prefix)
        got = answers()
    assert built == [prefix]  # extended, not rebuilt
    extended = memo[-1][1]
    memo.clear()
    assert got == answers()
    fresh = memo[-1][1]
    assert (extended.apart, extended.ptr_ok) == (fresh.apart, fresh.ptr_ok)
    assert (extended.dist and list(extended.dist.items())) == (
        fresh.dist and list(fresh.dist.items())
    )


def test_memo_finds_contexts_by_identity_and_extends_them():
    memo = sepent.pure._memo
    memo.clear()
    base = (PtrNeq(x, y), ArithLeq(a, b))
    with _counted_builds() as built:
        ctx = sepent.pure._context(base)
        assert sepent.pure._context(base) is ctx
        assert sepent.pure._context(tuple(list(base))) is ctx  # equal, not identical
        grown = sepent.pure._context(base + (ArithLeq(b, IntLit(0)),))
    assert built == [base] and grown is not ctx
    for k in range(8):
        sepent.pure._context((ArithLeq(a, IntLit(k)),))
    assert len(memo) == memo.maxlen


def test_pure_caches_are_bounded():
    """Every memo in pure.py, defs.py, engine.py, parser.py and cli.py
    names a literal integer size, so a long batch cannot keep every pure
    part, materialization or definition it has seen alive: each
    `lru_cache` has a literal `maxsize`, and each container the module
    keeps is a `deque` with a literal `maxlen`.  pure.py must keep its
    context memo so, and parser.py its definition memo."""
    assert module_memos(sepent.pure), "the context memo is not a module-level"
    assert module_memos(sepent.parser), "the definition memo is not a module-level"
    module_memos(sepent.defs)
    module_memos(sepent.engine)
    module_memos(sepent.cli)


def module_memos(module):
    """The module's containers, each checked to be bounded as above."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))

    def name(node):
        if isinstance(node, ast.Attribute):
            return node.attr
        return node.id if isinstance(node, ast.Name) else None

    def literal_int(node):
        return isinstance(node, ast.Constant) and type(node.value) is int

    sized = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and name(node.func) == "lru_cache":
            size = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "maxsize"), None
            )
            assert literal_int(size), ast.unparse(node)
            sized.add(id(node.func))
    for node in ast.walk(tree):
        if name(node) in ("lru_cache", "cache"):
            assert id(node) in sized, f"line {node.lineno}: {ast.unparse(node)}"

    containers = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    kept = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
            value = stmt.value
            if isinstance(value, containers) or (
                isinstance(value, ast.Call)
                and name(value.func)
                in ("dict", "list", "set", "OrderedDict", "defaultdict", "deque")
            ):
                kept.append(value)
    for value in kept:
        assert isinstance(value, ast.Call) and name(value.func) == "deque", (
            ast.unparse(value)
        )
        size = next((k.value for k in value.keywords if k.arg == "maxlen"), None)
        assert literal_int(size), ast.unparse(value)
    return kept
