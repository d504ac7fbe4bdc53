"""Decision procedure for the pure part of a normal left side.

The prover asks about left sides in normal form only (see `normalize`):
=L and Subst have substituted every pointer `=` away before any rule
asks, so the pointer part is a set of `!=` atoms over variables and
null. The entry points take plain tuples of atoms. Each tuple is
compiled into a `PureContext`, which holds its pointer `!=` atoms as
written, with a flag that none of them is `x!=x`; the arithmetic atoms
(=, <=) as difference bounds, with a zero node that anchors the integer
literals; and the longest-path distances of those bounds, None when a
positive cycle makes them infeasible. A pointer `=` atom is refused with
ValueError.

Queries and models read the context. A satisfiable set of `!=` atoms has
a model that keeps every two terms it does not name apart, so `a=b`
holds iff `a` is `b`, and `a!=b` iff the context holds that atom. An
arithmetic goal holds when every case of its negation makes the bounds
infeasible; the negation of <= gives the only strict bounds, of weight
1. `pointer_model` gives null 0 and every variable a location of its
own, `arith_model` reads the distances.

The memo keeps the 4 most recent contexts and finds a tuple by identity,
or else by equal contents; it never hashes a whole tuple. On a miss, a
tuple that continues a memoized one (the same atom objects first)
extends that context: `apart` is copied and takes the new atoms, and the
distances relax on from the old ones. Only other tuples are compiled
from scratch.

So a proof node whose left side only adds atoms to its parent's pays for
the new atoms, since its parent's context is still in the memo: a node
asks about at most a few tuples (its left pure part and the pure part of
its one-step materialization, which extends it). A left side rebuilt by
a substitution or by =L's drop is a tuple that continues none in the
memo. Its settled roots, each non-null and every two apart, follow it
through the binding (see `syntax.SymbolicHeap`), so ExM asks about no
pair of two of them there, but `engine._inconsistent` pays for one
whole context of it, unless it comes out equal to a memoized tuple. On
cold chain proofs (n = 6, 8, ..., 16), 4 entries build 66 contexts, one
per Subst node and all for `_inconsistent`, and extend 204; 2 entries
extend 270.
An unbounded memo builds only 6, because a tuple after Subst often
continues one from a few nodes up, but it keeps every context alive, and
all 66 builds take under 2% of the time of `prove`.
"""

from __future__ import annotations

from collections import deque
from operator import is_
from typing import Iterable, Literal, Optional

from .syntax import (
    ArithEq,
    ArithLeq,
    Expr,
    IntLit,
    PtrEq,
    PtrNeq,
    PureAtom,
    Var,
)

Atoms = tuple[PureAtom, ...]

_ZERO = ("zero",)
_Node = object  # Expr or _ZERO

# A bound (u, v, w) states value(v) >= value(u) + w.
Bound = tuple[_Node, _Node, int]


def _anchors(exprs: Iterable[Expr]) -> list[Bound]:
    """Bounds tying every integer literal among `exprs` to the zero node."""
    out: list[Bound] = []
    for k in {e.value for e in exprs if isinstance(e, IntLit)}:
        out.append((_ZERO, IntLit(k), k))
        out.append((IntLit(k), _ZERO, -k))
    return out


def _bounds_of(atoms: Atoms) -> list[Bound]:
    out: list[Bound] = []
    operands: list[Expr] = []
    for a in atoms:
        if isinstance(a, ArithEq):
            operands += (a.lhs, a.rhs)
            out.append((a.lhs, a.rhs, 0))
            out.append((a.rhs, a.lhs, 0))
        elif isinstance(a, ArithLeq):
            operands += (a.lhs, a.rhs)
            out.append((a.lhs, a.rhs, 0))
    return out + _anchors(operands)


def _relax(
    bounds: list[Bound], start: Optional[dict[_Node, int]] = None
) -> Optional[dict[_Node, int]]:
    """Longest-path fixpoint from an implicit all-zero source; None if
    unbounded. `start`, the fixpoint of a subset of the bounds, is a
    lower bound on this one, so the relaxation may begin there."""
    dist: dict[_Node, int] = dict(start) if start else {_ZERO: 0}
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
        return [[(a.rhs, a.lhs, 1)], [(a.lhs, a.rhs, 1)]]
    raise TypeError(a)


# ------------------------------------------------------------------- contexts


class PureContext:
    """What a tuple of pure atoms decides, computed once.

    `apart` holds its pointer `!=` atoms. An unsatisfiable context
    entails every goal.
    """

    __slots__ = ("apart", "ptr_ok", "bounds", "dist")

    def __init__(self, atoms: Atoms) -> None:
        self.apart: set[PtrNeq] = set()
        self.ptr_ok = True
        self._keep_apart(atoms)
        self.bounds = _bounds_of(atoms)
        self.dist = _relax(self.bounds)

    def extended(self, extra: Atoms) -> "PureContext":
        """The context of this tuple followed by `extra`: the new `!=`
        atoms join a copy of `apart`, and the distances relax on from the
        old ones."""
        out = PureContext.__new__(PureContext)
        out.apart = set(self.apart)
        out.ptr_ok = self.ptr_ok
        out._keep_apart(extra)
        more = _bounds_of(extra)
        out.bounds = self.bounds + more if more else self.bounds
        out.dist = (
            _relax(out.bounds, self.dist) if more and self.dist else self.dist
        )
        return out

    def _keep_apart(self, atoms: Atoms) -> None:
        for a in atoms:
            if isinstance(a, PtrNeq):
                if a.lhs == a.rhs:
                    self.ptr_ok = False
                self.apart.add(a)
            elif isinstance(a, PtrEq):
                raise ValueError(
                    f"pointer equality {a} reached the pure solver; "
                    "normalization substitutes it away first"
                )

    @property
    def sat(self) -> bool:
        return self.ptr_ok and self.dist is not None

    def entails(self, goal: PureAtom) -> bool:
        if not self.sat:
            return True
        if isinstance(goal, PtrEq):
            return goal.lhs == goal.rhs
        if isinstance(goal, PtrNeq):
            return goal in self.apart
        base = self.bounds + _anchors((goal.lhs, goal.rhs))
        return all(
            _relax(base + case, self.dist) is None
            for case in _strict_negation(goal)
        )


# Recent contexts, most recent last, each with its tuple; see the module
# docstring for why 4.
_memo: deque[tuple[Atoms, PureContext]] = deque(maxlen=4)


def _context(atoms: Atoms) -> PureContext:
    """The context of `atoms`. A memoized tuple is found by identity, or
    else by comparing equal; on a miss, a memoized context is extended if
    its tuple is a prefix of `atoms` (the same atom objects), and a new
    one is built only when none is."""
    if _memo and _memo[-1][0] is atoms:  # most queries ask again at once
        return _memo[-1][1]
    for i in range(len(_memo) - 1, -1, -1):
        key = _memo[i][0]
        if key is atoms or (len(key) == len(atoms) and key == atoms):
            hit = _memo[i]
            del _memo[i]
            _memo.append(hit)
            return hit[1]
    ctx = None
    for key, old in reversed(_memo):
        k = len(key)
        if k < len(atoms) and all(map(is_, key, atoms)):
            ctx = old.extended(atoms[k:])
            break
    if ctx is None:
        ctx = PureContext(atoms)
    _memo.append((atoms, ctx))
    return ctx


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
    if a == b or not ctx.sat:
        return "eq"
    return "neq" if PtrNeq(a, b) in ctx.apart else "unknown"


def arith_model(atoms: Atoms, names: tuple[str, ...] = ()) -> dict[str, int]:
    """One satisfying integer assignment covering at least the given names."""
    dist = _context(atoms).dist
    if dist is None:
        raise ValueError("arithmetic part is unsatisfiable")
    zero = dist[_ZERO]
    out = {n.name: d - zero for n, d in dist.items() if isinstance(n, Var)}
    for n in names:
        out.setdefault(n, 0)
    return out


def pointer_model(atoms: Atoms, names: tuple[str, ...] = ()) -> dict[str, int]:
    """Locations for pointer variables: null is 0, every variable has its
    own, in name order from 1.

    Covers the given names and every variable a pointer atom mentions."""
    ctx = _context(atoms)
    if not ctx.ptr_ok:
        raise ValueError("pointer part is unsatisfiable")
    mentioned = {
        t.name for a in ctx.apart for t in (a.lhs, a.rhs) if isinstance(t, Var)
    }
    return {n: i for i, n in enumerate(sorted(mentioned | set(names)), 1)}
