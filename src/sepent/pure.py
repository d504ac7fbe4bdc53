"""Decision procedure for the pure fragment.

Pointer atoms (=, !=) over variables and null are handled by union-find plus
disequality edges. Arithmetic atoms (=, <=) over variables and integer
literals form difference constraints; a zero node anchors literals and a
longest-path relaxation both detects infeasibility (positive cycle) and
yields a satisfying assignment. Entailment goes by refutation; the negation
of <= introduces the only strict bounds, encoded with weight 1.

All entry points take plain tuples of atoms so results can be memoized.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Literal, Optional

from .syntax import (
    ArithEq,
    ArithLeq,
    Expr,
    IntLit,
    Null,
    NULL,
    PtrEq,
    PtrNeq,
    PureAtom,
    Var,
)

Atoms = tuple[PureAtom, ...]

_ZERO = ("zero",)
_Node = object  # Expr or _ZERO


# ------------------------------------------------------------------ pointer part


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


# --------------------------------------------------------------- arithmetic part

# A bound (u, v, w) states value(v) >= value(u) + w.
Bound = tuple[_Node, _Node, int]


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


def _relax(bounds: list[Bound]) -> Optional[dict[_Node, int]]:
    """Longest-path fixpoint from an implicit all-zero source; None if unbounded."""
    dist: dict[_Node, int] = {_ZERO: 0}
    for u, v, _ in bounds:
        dist.setdefault(u, 0)
        dist.setdefault(v, 0)
    for _ in range(len(dist)):
        changed = False
        for u, v, w in bounds:
            if dist[u] + w > dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            return dist
    for u, v, w in bounds:
        if dist[u] + w > dist[v]:
            return None
    return dist


def _strict_negation(a: PureAtom) -> list[list[Bound]]:
    """Disjunction of bound sets equivalent to the negation of an arith atom."""
    if isinstance(a, ArithLeq):
        return [[(a.rhs, a.lhs, 1)]]
    if isinstance(a, ArithEq):
        return [
            [(a.rhs, a.lhs, 1)],
            [(a.lhs, a.rhs, 1)],
        ]
    raise TypeError(a)


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


# ------------------------------------------------------------------- entry points


@lru_cache(maxsize=None)
def satisfiable(atoms: Atoms) -> bool:
    uf, diseqs = _ptr_state(atoms)
    if not _ptr_consistent(uf, diseqs):
        return False
    return _relax(_bounds_of(atoms)) is not None


@lru_cache(maxsize=None)
def entails(atoms: Atoms, goal: PureAtom) -> bool:
    """Does the conjunction of atoms entail the goal atom?"""
    if not satisfiable(atoms):
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


def entails_all(atoms: Atoms, goals: Iterable[PureAtom]) -> bool:
    return all(entails(atoms, g) for g in goals)


Status = Literal["eq", "neq", "unknown"]


@lru_cache(maxsize=None)
def status_of_pair(atoms: Atoms, a: Expr, b: Expr) -> Status:
    """Decide whether two pointer terms are forced equal, forced apart, or free."""
    if entails(atoms, PtrEq(a, b)):
        return "eq"
    if entails(atoms, PtrNeq(a, b)):
        return "neq"
    return "unknown"


def arith_model(atoms: Atoms, names: tuple[str, ...] = ()) -> dict[str, int]:
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


def pointer_model(atoms: Atoms, names: tuple[str, ...] = ()) -> dict[str, int]:
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
