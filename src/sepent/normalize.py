"""Left-side normalization: the six rewriting rules, one step at a time.

A symbolic heap is in normal form when every occurrence's guard is spelled
out, every allocated root is known non-null and pairwise distinct, no
equalities remain, no atom denies itself, and the arithmetic part has a
model (the symbolic-heap normal form of Berdine, Calcagno and O'Hearn,
APLAS 2005). The rules apply in a fixed order: drop reflexive
equalities, substitute equalities away, collapse occurrences whose root
meets their segment, materialize non-null and pairwise disequalities, and
finally split undecided pairs (the only branching rule).

Each applier returns one rule instance, a `RuleChoice` whose edges carry
what the step consumed, kept and bound, which the proof engine records
as it is; `normalize_step` picks the first that applies. Where =L and
Subst find nothing, no pointer `=` is left: Subst substitutes away every
equality but one of two constants, and since the engine refuses an
integer literal in a pointer position, the only such pointer equality
is null=null, which =L drops. So ExM and the pure solver see pointer
`!=` atoms only, and a left side where no step applies is in normal
form or has an unsatisfiable pure part (closed by Inconsistency). The
tests state the normal form and drive the steps to a fixpoint.

NeqNull and NeqStar add every disequality their scan finds missing in one
step, in scan order. Adding them one per step gives the same proof up to
contracting each run of NeqNull steps, and each run of NeqStar steps, into
its last node: neither rule adds an equality or a root=seg atom, so =L,
Subst and LBase cannot fire inside such a run; NeqNull has already added
every root!=null atom NeqStar could add; and the set of atoms known to be
nonempty only grows mid-run when two atoms share a root, which makes the
left side unsatisfiable. Chain proofs thus grow linearly in the chain
length, not quadratically.

What a proof node pays for. The left side carries what earlier steps
computed or settled (see `SymbolicHeap`): the settled roots (`apart`),
and the roots and guards of the spatial atoms (`defs.guards`). NeqStar
alone settles roots, on the heap it leaves, and runs only when NeqNull
has nothing to add, so each settled root is non-null and every two are
apart. NeqNull visits only the unsettled roots, and NeqStar and ExM only
the pairs with an unsettled root, in the full scan's order; what they
skip is present already, so they add the same atoms and pick the same
split. =L and Subst scan the pure part for its equalities. Added atoms
keep the settled roots, a substitution (Subst, or LBase on an order
pair) maps them through its binding, and =L's drop keeps them. So a node
pays for its k new roots, about n*k pairs among n roots instead of
n*n/2. What is left per node: one look at each root's guard to find the
known roots; the roots and guards again after a change to the spatial
part or a dropped atom; and the pure set, built anew after a
substitution.

Most nodes do not normalize at all. The engine records on a left side
that `normalize_step` found nothing there and that it is satisfiable
(`normal_for`, see `engine._select`), and skips both checks where the
record is. The rules that keep the left side whole (=R, RBase,
Hypothesis, RInd) keep the record with it, and Star's premises take it
over: each keeps the whole pure part and some of the atoms, so no scan
above finds more there. On a chain proof of n pieces, 16n - 1 nodes,
`normalize_step` runs at 7n + 2 of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, combinations
from typing import Callable, Iterable, Optional, Sequence

from . import pure as pure_solver
from .defs import Registry, guards, order_of
from .syntax import (
    ArithEq,
    Entailment,
    Expr,
    IntLit,
    Null,
    NULL,
    PtrEq,
    PtrNeq,
    SpatialAtom,
    SymbolicHeap,
    Var,
    is_fresh_name,
)


# ------------------------------------------------------------ rule instances


@dataclass(frozen=True)
class Edge:
    """Annotations on a parent-to-child step.

    fwd maps each parent LHS spatial index to its surviving child index
    (None when the atom was consumed); progressed holds parent indices whose
    occurrence was unfolded with an incremented annotation on this step; sub
    records a variable binding eliminated by Subst or LBase; peeled holds
    the LHS atoms this premise of Star does not keep.
    """

    rule: str
    fwd: tuple[Optional[int], ...]
    progressed: frozenset[int] = frozenset()
    sub: Optional[tuple[str, Expr]] = None
    peeled: tuple[SpatialAtom, ...] = ()


@dataclass(frozen=True)
class RuleChoice:
    """A selected rule instance: label, premises, and edge annotations.

    Axioms have no premises; applying them closes the leaf.
    """

    label: str
    premises: tuple[Entailment, ...]
    edges: tuple[Edge, ...]

    def __str__(self) -> str:
        return self.label


def in_place(label: str, ent: Entailment, *premises: Entailment) -> RuleChoice:
    """A rule instance whose premises keep the left spatial part of `ent`
    at the same positions."""
    edge = Edge(label, tuple(range(len(ent.lhs.spatial))))
    return RuleChoice(label, premises, (edge,) * len(premises))


def spliced_fwd(n: int, i: int, k: int) -> tuple[Optional[int], ...]:
    """The index map of n left atoms when atom i is replaced by k atoms:
    atom i follows the last of them, and is consumed when k is 0."""
    return tuple(
        j if j < i else (j + k - 1 if j > i or k else None) for j in range(n)
    )


def case_split(ent: Entailment, e1: Expr, e2: Expr) -> RuleChoice:
    """ExM on the pair: the left side assumes it equal, then apart."""
    eq = replace(ent, lhs=ent.lhs.add_pure([PtrEq(e1, e2)]))
    ne = replace(ent, lhs=ent.lhs.add_pure([PtrNeq(e1, e2)]))
    return in_place("ExM", ent, eq, ne)


# -------------------------------------------------------------- rule appliers


def apply_eq_l(ent: Entailment, reg: Registry) -> Optional[RuleChoice]:
    for i, a in enumerate(ent.lhs.pure):
        if (type(a) is PtrEq or type(a) is ArithEq) and a.lhs == a.rhs:
            return in_place("=L", ent, replace(ent, lhs=ent.lhs.drop_pure_at(i)))
    return None


def _orient(lhs: Expr, rhs: Expr) -> Optional[tuple[str, Expr]]:
    """Pick the variable to eliminate: null and literals win, then fresh
    names lose to input names, then the lexicographically larger name goes."""
    if isinstance(lhs, (Null, IntLit)):
        lhs, rhs = rhs, lhs
    if isinstance(rhs, (Null, IntLit)):
        return (lhs.name, rhs) if isinstance(lhs, Var) else None
    assert isinstance(lhs, Var) and isinstance(rhs, Var)
    lf, rf = is_fresh_name(lhs.name), is_fresh_name(rhs.name)
    if lf != rf:
        return (lhs.name, rhs) if lf else (rhs.name, lhs)
    return (lhs.name, rhs) if lhs.name > rhs.name else (rhs.name, lhs)


def subst_site(ent: Entailment) -> Optional[tuple[int, str, Expr]]:
    """Index of the equality Subst would consume plus the oriented binding."""
    for i, a in enumerate(ent.lhs.pure):
        if (type(a) is PtrEq or type(a) is ArithEq) and a.lhs != a.rhs:
            oriented = _orient(a.lhs, a.rhs)
            if oriented is None:
                continue  # literal-vs-literal clash, left for the sat check
            name, repl = oriented
            return i, name, repl
    return None


def apply_subst(ent: Entailment, reg: Registry) -> Optional[RuleChoice]:
    site = subst_site(ent)
    if site is None:
        return None
    i, name, repl = site
    # the equality comes out reflexive, so dropping it keeps what the
    # substitution handed on
    out = ent.subst({name: repl})
    prem = replace(out, lhs=out.lhs.drop_pure_at(i))
    edge = Edge("Subst", tuple(range(len(ent.lhs.spatial))), sub=(name, repl))
    return RuleChoice("Subst", (prem,), (edge,))


def lbase_site(
    ent: Entailment, reg: Registry
) -> Optional[
    tuple[int, Optional[tuple[Expr, Expr]], Optional[tuple[str, Expr]]]
]:
    """Index of the first occurrence whose root meets its segment, its
    (src, tgt) arguments when they differ, and the binding they orient to."""
    for i, g in enumerate(guards(ent.lhs, reg)):
        if g is not None and g.lhs == g.rhs:
            pair = order_of(ent.lhs.spatial[i], reg)
            if pair is None or pair[0] == pair[1]:
                return i, None, None
            return i, pair, _orient(*pair)
    return None


def apply_lbase(ent: Entailment, reg: Registry) -> Optional[RuleChoice]:
    site = lbase_site(ent, reg)
    if site is None:
        return None
    i, pair, oriented = site
    out = replace(ent, lhs=ent.lhs.replace_spatial(i, ()))
    if oriented is not None:
        out = out.subst(dict([oriented]))
    elif pair is not None:
        out = replace(out, lhs=out.lhs.add_pure([ArithEq(*pair)]))
    edge = Edge("LBase", spliced_fwd(len(ent.lhs.spatial), i, 0), sub=oriented)
    return RuleChoice("LBase", (out,), (edge,))


def _known_roots(heap: SymbolicHeap, reg: Registry) -> list[Expr]:
    """Roots of the atoms known to be nonempty, in spatial order: every
    cell, and every occurrence whose guard the pure part holds."""
    have = heap.pure_set
    return [r for r, g in zip(heap.roots, guards(heap, reg)) if g is None or g in have]


def _pairs(
    roots: Sequence[Expr], settled: frozenset[Expr]
) -> Iterable[tuple[Expr, Expr]]:
    """The pairs (roots[i], roots[j]) with i < j, in that order, except
    those of two settled roots. A root listed twice counts as unsettled."""
    if not settled:
        return combinations(roots, 2)
    seen: set[Expr] = set()
    twice: set[Expr] = set()
    for r in roots:
        (twice if r in seen else seen).add(r)
    unsettled = [r not in settled or r in twice for r in roots]
    at = [j for j, u in enumerate(unsettled) if u]
    out: list[tuple[Expr, Expr]] = []
    k = 0
    for i, r in enumerate(roots):
        if unsettled[i]:
            k += 1
            out.extend((r, s) for s in roots[i + 1 :])
        else:
            out.extend((r, roots[j]) for j in at[k:])
    return out


def apply_neq_null(ent: Entailment, reg: Registry) -> Optional[RuleChoice]:
    have = ent.lhs.pure_set
    apart = ent.lhs.apart
    needs: dict[PtrNeq, None] = {}  # an insertion-ordered set
    for r in _known_roots(ent.lhs, reg):
        if r not in apart:
            need = PtrNeq(r, NULL)
            if need not in have:
                needs[need] = None
    if not needs:
        return None
    return in_place("NeqNull", ent, replace(ent, lhs=ent.lhs.add_pure(needs)))


def apply_neq_star(ent: Entailment, reg: Registry) -> Optional[RuleChoice]:
    have = ent.lhs.pure_set
    roots = _known_roots(ent.lhs, reg)
    needs: dict[PtrNeq, None] = {}
    for r, s in _pairs(roots, ent.lhs.apart):
        need = PtrNeq(r, s)
        if need not in have:
            needs[need] = None
    out = ent.lhs.add_pure(needs)
    # NeqNull ran first and found every root non-null; now every two are apart
    out.settle(frozenset(roots))
    if not needs:
        return None
    return in_place("NeqStar", ent, replace(ent, lhs=out))


def apply_exm(ent: Entailment, reg: Registry) -> Optional[RuleChoice]:
    heap = ent.lhs
    have = heap.pure_set
    occ_pairs = [(g.lhs, g.rhs) for g in guards(heap, reg) if g is not None]
    for e1, e2 in chain(occ_pairs, _pairs(heap.roots, heap.apart)):
        if e1 == e2 or PtrNeq(e1, e2) in have:
            continue
        if pure_solver.status_of_pair(heap.pure, e1, e2) == "unknown":
            return case_split(ent, e1, e2)
    return None


_APPLIERS: tuple[Callable[[Entailment, Registry], Optional[RuleChoice]], ...] = (
    apply_eq_l,
    apply_subst,
    apply_lbase,
    apply_neq_null,
    apply_neq_star,
    apply_exm,
)


def normalize_step(ent: Entailment, reg: Registry) -> Optional[RuleChoice]:
    """First applicable rule in the pinned order, or None when settled."""
    for applier in _APPLIERS:
        step = applier(ent, reg)
        if step is not None:
            return step
    return None

