"""Decision procedure for the pure fragment.

Pointer atoms (=, !=) over variables and null are handled by union-find plus
disequality edges. Arithmetic atoms (=, <=) over variables and integer
literals form difference constraints; a zero node anchors literals and a
longest-path relaxation both detects infeasibility (positive cycle) and
yields a satisfying assignment. Entailment goes by refutation; the negation
of <= introduces the only strict bounds, encoded with weight 1.

The entry points take plain tuples of atoms. Each distinct tuple is
compiled once into a `PureContext`: the class representative of every
pointer term, the class pairs a disequality keeps apart, the arithmetic
bounds and satisfiability. Queries then read the context instead of
rebuilding the union-find. The contexts sit in a memo of 4 entries: every
reuse happens while the search looks at one proof node, whose queries ask
about at most a few tuples (its left pure part and the pure part of its
one-step materialization), so a cold chain proof builds exactly as many
contexts with 4 entries as with an unbounded memo, while more entries only
keep more of these heavy objects alive.
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


# ------------------------------------------------------------------- contexts


class PureContext:
    """What a tuple of pure atoms decides, computed once.

    A term the atoms never mention is its own class.  An unsatisfiable
    context entails every goal.
    """

    __slots__ = ("rep", "apart", "bounds", "sat")

    def __init__(self, atoms: Atoms) -> None:
        uf, diseqs = _ptr_state(atoms)
        rep = {t: uf.find(t) for t in uf.parent}
        apart: set[frozenset[Expr]] = set()
        sat = True
        for a, b in diseqs:
            ra, rb = rep[a], rep[b]
            sat = sat and ra != rb
            apart.add(frozenset((ra, rb)))
        self.rep = rep
        self.apart = apart
        self.bounds = _bounds_of(atoms)
        self.sat = sat and _relax(self.bounds) is not None

    def entails(self, goal: PureAtom) -> bool:
        if not self.sat:
            return True
        if isinstance(goal, (PtrEq, PtrNeq)):
            ra = self.rep.get(goal.lhs, goal.lhs)
            rb = self.rep.get(goal.rhs, goal.rhs)
            if isinstance(goal, PtrEq):
                return ra == rb
            return ra != rb and frozenset((ra, rb)) in self.apart
        base = self.bounds + _lit_bounds(goal)
        return all(
            _relax(base + case) is None for case in _strict_negation(goal)
        )


@lru_cache(maxsize=4)  # see the module docstring for why 4
def _context(atoms: Atoms) -> PureContext:
    return PureContext(atoms)


# ------------------------------------------------------------------- entry points


def satisfiable(atoms: Atoms) -> bool:
    return _context(atoms).sat


def entails(atoms: Atoms, goal: PureAtom) -> bool:
    """Does the conjunction of atoms entail the goal atom?"""
    return _context(atoms).entails(goal)


def entails_all(atoms: Atoms, goals: Iterable[PureAtom]) -> bool:
    ctx = _context(atoms)
    return all(ctx.entails(g) for g in goals)


Status = Literal["eq", "neq", "unknown"]


def status_of_pair(atoms: Atoms, a: Expr, b: Expr) -> Status:
    """Decide whether two pointer terms are forced equal, forced apart, or free."""
    ctx = _context(atoms)
    if ctx.entails(PtrEq(a, b)):
        return "eq"
    if ctx.entails(PtrNeq(a, b)):
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
