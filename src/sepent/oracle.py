"""Bounded semantic oracle: explicit models, satisfaction, entailment by search.

This is the ground-truth side of the tool. It evaluates symbolic heaps
against finite stack/heap models and decides entailments by enumerating all
models of the left side up to a bound, checking the right side on each. It
imports only `syntax` and `defs` from this package, none of the prover or
its pure solver, so the two can cross-check one another.

Satisfaction of a predicate occurrence needs no quantifier search: the
root and segment values decide between the empty and the nonempty branch,
and in a nonempty segment the head cell's fields determine the values of
every head-field existential, so the check is a loop that consumes one cell
per nonempty step. A non-head-field existential (only the inner order source
can be one) is the one choice point; it ranges over the data values in
sight.

Model enumeration is canonical: allocated cells take locations 1..n in
expansion order and dangling values use fresh locations in first-use order,
which quotients away isomorphic duplicates. An unfolding whose equalities
contradict its own disequalities has no models and is skipped.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from .defs import (
    CoverPlan,
    InductiveDef,
    Kind,
    Registry,
    base_instance,
    existential_kinds,
    known_problems,
    rec_instance,
    shape_problems,
)
from .syntax import (
    ArithEq,
    ArithLeq,
    Entailment,
    Expr,
    FreshNames,
    IntLit,
    Null,
    PointsTo,
    PtrEq,
    PtrNeq,
    PureAtom,
    SymbolicHeap,
    Var,
)


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class Bound:
    max_unfold: int = 4
    max_locs: int = 6
    data_min: int = -3
    data_max: int = 6

    def data_range(self) -> range:
        return range(self.data_min, self.data_max + 1)


DEFAULT_BOUND = Bound()


@dataclass(frozen=True)
class Cell:
    sort: str
    values: tuple[int, ...]


@dataclass
class HeapModel:
    """Stack maps every variable to an int: a location for pointer variables
    (0 is null), a plain integer for data variables."""

    stack: dict[str, int]
    heap: dict[int, Cell]
    ptr_vars: frozenset[str]

    def key(self) -> tuple:
        return (
            tuple(sorted(self.stack.items())),
            tuple(sorted((l, c.sort, c.values) for l, c in self.heap.items())),
        )

    def pretty(self, reg: Registry) -> str:
        def loc(v: int) -> str:
            return "null" if v == 0 else f"ℓ{v}"

        parts = []
        for n in sorted(self.stack):
            v = self.stack[n]
            parts.append(f"{n}={loc(v)}" if n in self.ptr_vars else f"{n}={v}")
        lines = ["stack: " + (", ".join(parts) if parts else "(empty)")]
        if not self.heap:
            lines.append("heap:  (empty)")
        for l in sorted(self.heap):
            cell = self.heap[l]
            decl = reg.sort_of(cell.sort)
            vals = [
                str(v) if ftype == "int" else loc(v)
                for (_, ftype), v in zip(decl.fields, cell.values)
            ]
            lines.append(f"heap:  {loc(l)} -> {cell.sort}({', '.join(vals)})")
        return "\n".join(lines)


Env = dict[str, int]


def _ptr_val(e: Expr, env: Env) -> int:
    if type(e) is Var:
        try:
            return env[e.name]
        except KeyError:
            raise OracleError(f"unbound variable {e.name}") from None
    if isinstance(e, Null):
        return 0
    raise OracleError(f"integer literal {e} in pointer position")


def _data_val(e: Expr, env: Env) -> int:
    if type(e) is Var:
        try:
            return env[e.name]
        except KeyError:
            raise OracleError(f"unbound variable {e.name}") from None
    if isinstance(e, IntLit):
        return e.value
    raise OracleError("null in arithmetic position")


def _field_val(e: Expr, ftype: str, env: Env) -> int:
    return _data_val(e, env) if ftype == "int" else _ptr_val(e, env)


def eval_pure_atom(a: PureAtom, env: Env) -> bool:
    if isinstance(a, PtrEq):
        return _ptr_val(a.lhs, env) == _ptr_val(a.rhs, env)
    if isinstance(a, PtrNeq):
        return _ptr_val(a.lhs, env) != _ptr_val(a.rhs, env)
    if isinstance(a, ArithEq):
        return _data_val(a.lhs, env) == _data_val(a.rhs, env)
    if isinstance(a, ArithLeq):
        return _data_val(a.lhs, env) <= _data_val(a.rhs, env)
    raise TypeError(a)


# A pure atom compiled for evaluation: a comparison and its two operands, each
# a variable name or a constant. An atom holding a constant of the wrong kind
# compiles to (None, atom, None) and is left to eval_pure_atom, which raises.
Check = tuple

_COMPARE = {PtrEq: operator.eq, PtrNeq: operator.ne, ArithEq: operator.eq, ArithLeq: operator.le}


def _operand(e: Expr, ptr: bool) -> Optional[str | int]:
    if type(e) is Var:
        return e.name
    if ptr:
        return 0 if isinstance(e, Null) else None
    return e.value if isinstance(e, IntLit) else None


def _compile(a: PureAtom) -> Check:
    ptr = isinstance(a, (PtrEq, PtrNeq))
    lhs, rhs = _operand(a.lhs, ptr), _operand(a.rhs, ptr)
    if lhs is None or rhs is None:
        return (None, a, None)
    return (_COMPARE[type(a)], lhs, rhs)


def _all_hold(checks: list[Check], env: Env) -> bool:
    """Are the compiled atoms true?  Every variable they name must be bound."""
    for op, lhs, rhs in checks:
        if op is None:
            if not eval_pure_atom(lhs, env):
                return False
        elif not op(
            env[lhs] if type(lhs) is str else lhs, env[rhs] if type(rhs) is str else rhs
        ):
            return False
    return True


# ------------------------------------------------------------------ satisfaction


# Pending atoms of the cover check form an immutable cons list of
# (atom, env, rest) triples, so a choice point keeps its continuation as is.
Pending = Optional[tuple]


def holds(
    model: HeapModel, heap: SymbolicHeap, reg: Registry, bound: Bound = DEFAULT_BOUND
) -> bool:
    """Does the model satisfy the symbolic heap (exact heap cover)?"""
    env = model.stack
    if not all(eval_pure_atom(a, env) for a in heap.pure):
        return False
    pending: Pending = None
    for a in reversed(heap.spatial):
        pending = (a, env, pending)
    return _covers(model, pending, reg, bound)


def _data_hint(model: HeapModel, bound: Bound) -> tuple[int, ...]:
    vals = set(bound.data_range())
    vals.update(model.stack.values())
    for c in model.heap.values():
        vals.update(c.values)
    return tuple(sorted(vals))


def _covers(model: HeapModel, pending: Pending, reg: Registry, bound: Bound) -> bool:
    """Do the pending atoms cover the model's heap exactly?

    An occurrence whose root equals its segment can only take its empty
    branch and any other only its nonempty one, so the walk is a loop. Its
    only choice points are existentials the head cell leaves unbound; their
    alternatives wait on an explicit stack, and a failure resumes the latest
    one after giving back the cells consumed since.
    """
    cells = model.heap
    preds, sorts = reg.preds, reg.sorts
    used: set[int] = set()
    trail: list[int] = []  # consumed locations, in order
    # (alternatives left, head bindings, plan, continuation, trail length)
    choices: list[tuple[Iterator[Env], Env, CoverPlan, Pending, int]] = []
    hint: Optional[tuple[int, ...]] = None
    while True:
        ok = True
        while pending is not None:
            atom, env, pending = pending
            if type(atom) is PointsTo:
                loc = _ptr_val(atom.root, env)
                cell = cells.get(loc)
                if loc == 0 or cell is None or loc in used or cell.sort != atom.sort:
                    ok = False
                    break
                for (_, ftype), e, v in zip(sorts[atom.sort].fields, atom.fields, cell.values):
                    if _field_val(e, ftype, env) != v:
                        ok = False
                        break
                if not ok:
                    break
                used.add(loc)
                trail.append(loc)
                continue

            d = preds[atom.pred]
            plan = d.plan
            args = atom.args
            rootv = _ptr_val(args[0], env)
            if rootv == _ptr_val(args[d.seg_index], env):
                pair = d.order_pair
                if pair is not None and _data_val(args[pair[0]], env) != _data_val(
                    args[pair[1]], env
                ):
                    ok = False
                    break
                continue
            cell = cells.get(rootv)
            if rootv == 0 or cell is None or rootv in used or cell.sort != plan.sort:
                ok = False
                break
            benv: Env = {}
            for (name, is_ptr), a in zip(plan.params, args):
                if type(a) is Var and a.name in env:
                    benv[name] = env[a.name]
                else:
                    benv[name] = _ptr_val(a, env) if is_ptr else _data_val(a, env)
            for (_, ftype), (e, name), v in zip(sorts[plan.sort].fields, plan.head, cell.values):
                if name is not None:
                    benv[name] = v
                elif _field_val(e, ftype, benv) != v:
                    ok = False
                    break
            if not ok:
                break
            used.add(rootv)
            trail.append(rootv)
            if plan.unbound:
                if hint is None:
                    hint = _data_hint(model, bound)
                alts = _ex_choices(d, reg, hint)
                choices.append((alts, benv, plan, pending, len(trail)))
                ok = False  # the first alternative is taken below
                break
            for a in plan.side:
                if not eval_pure_atom(a, benv):
                    ok = False
                    break
            if not ok:
                break
            for m in plan.pushed:
                pending = (m, benv, pending)
        if ok and len(used) == len(cells):
            return True

        while True:
            if not choices:
                return False
            alts, benv, plan, rest, mark = choices[-1]
            used.difference_update(trail[mark:])
            del trail[mark:]
            ext = next(alts, None)
            if ext is None:
                choices.pop()
                continue
            env2 = benv | ext
            if all(eval_pure_atom(a, env2) for a in plan.side):
                pending = rest
                for m in plan.pushed:
                    pending = (m, env2, pending)
                break


def _ex_choices(d: InductiveDef, reg: Registry, hint: tuple[int, ...]) -> Iterator[Env]:
    """Every assignment of hint values to the existentials no head field binds."""
    unbound = d.plan.unbound
    kinds = existential_kinds(d, reg)
    for w in unbound:
        if kinds.get(w, "int") != "int":
            raise OracleError(f"{d.name}: existential {w} not determined by head cell")
    for combo in itertools.product(hint, repeat=len(unbound)):
        yield dict(zip(unbound, combo))


def kinds_of(heap: SymbolicHeap, reg: Registry) -> dict[str, Kind]:
    """Variable kinds inferred from use sites; raises on conflicting use."""
    kinds: dict[str, Kind] = {}

    def note(e: Expr, k: Kind) -> None:
        if not isinstance(e, Var):
            return
        old = kinds.setdefault(e.name, k)
        if old != k:
            raise OracleError(f"variable {e.name} used at both sorts")

    for atom in heap.spatial:
        if isinstance(atom, PointsTo):
            note(atom.root, "ptr")
            decl = reg.sort_of(atom.sort)
            for (_, ftype), e in zip(decl.fields, atom.fields):
                note(e, "int" if ftype == "int" else "ptr")
        else:
            d = reg.pred(atom.pred)
            for p, a in zip(d.params, atom.args):
                note(a, p.kind)
    for a in heap.pure:
        k: Kind = "ptr" if isinstance(a, (PtrEq, PtrNeq)) else "int"
        note(a.lhs, k)
        note(a.rhs, k)
    return kinds


# ----------------------------------------------------------- model enumeration


def _check_input(reg: Registry, *heaps: SymbolicHeap) -> None:
    """Refuse a registry outside the template, as `prove` does: the
    semantics here reads an occurrence's root as its argument 0 too. Refuse
    atoms of the heaps that the registry cannot interpret, too."""
    problems = known_problems(reg)
    for heap in heaps:
        problems += shape_problems(heap, reg)
    if problems:
        raise ValueError("; ".join(problems))


def models_of(
    heap: SymbolicHeap,
    reg: Registry,
    bound: Bound = DEFAULT_BOUND,
    self_check: bool = False,
) -> Iterator[HeapModel]:
    """All models of the heap up to the bound, canonically enumerated.
    The registry and the heap are checked when this is called, not when
    it is iterated."""
    _check_input(reg, heap)
    return _models(heap, reg, bound, self_check)


def _models(
    heap: SymbolicHeap, reg: Registry, bound: Bound, self_check: bool
) -> Iterator[HeapModel]:
    fresh = FreshNames()
    stack_names = tuple(sorted(heap.fv()))
    # A stack variable an unfolding drops keeps the kind the input gives it.
    input_kinds = kinds_of(heap, reg)
    ptr_vars = frozenset(n for n in stack_names if input_kinds.get(n) == "ptr")
    seen: set[tuple] = set()
    for cells, pure_atoms in _expand(heap, reg, bound, fresh):
        kinds = input_kinds | kinds_of(SymbolicHeap(cells, pure_atoms), reg)
        if _refuted(pure_atoms):
            continue
        layout = [
            (i + 1, c.sort, tuple(zip(reg.sort_of(c.sort).fields, c.fields)))
            for i, c in enumerate(cells)
        ]
        for env in _assignments(cells, pure_atoms, stack_names, kinds, bound):
            hp = tuple(
                (loc, sort, tuple([_field_val(e, ftype, env) for (_, ftype), e in fields]))
                for loc, sort, fields in layout
            )
            stack = tuple([(n, env[n]) for n in stack_names])
            key = (stack, hp)  # HeapModel.key() of the model below
            if key in seen:
                continue
            seen.add(key)
            model = HeapModel(
                dict(stack), {loc: Cell(sort, vals) for loc, sort, vals in hp}, ptr_vars
            )
            if self_check and not holds(model, heap, reg, bound):
                raise OracleError("enumerator produced a non-model")
            yield model


def _refuted(pure_atoms: tuple[PureAtom, ...]) -> bool:
    """Do the equalities alone force together the two sides of a
    disequality, or two distinct constants?

    Order atoms are left out. A constant of the wrong kind (an integer in a
    pointer atom, null in an arithmetic one) answers False, because
    evaluating that atom raises and skipping its variant would hide it.
    """
    for a in pure_atoms:
        wrong = IntLit if isinstance(a, (PtrEq, PtrNeq)) else Null
        if isinstance(a.lhs, wrong) or isinstance(a.rhs, wrong):
            return False
    parent: dict[Expr, Expr] = {}

    def find(e: Expr) -> Expr:
        while e in parent:
            e = parent[e]
        return e

    for a in pure_atoms:
        if isinstance(a, (PtrEq, ArithEq)):
            r1, r2 = find(a.lhs), find(a.rhs)
            if r1 != r2:
                parent[r1] = r2
    constant: dict[Expr, Expr] = {}
    for a in pure_atoms:
        if isinstance(a, PtrNeq) and find(a.lhs) == find(a.rhs):
            return True
        if isinstance(a, (PtrEq, ArithEq)):
            for e in (a.lhs, a.rhs):
                if not isinstance(e, Var) and constant.setdefault(find(e), e) != e:
                    return True
    return False


def _expand(
    heap: SymbolicHeap, reg: Registry, bound: Bound, fresh: FreshNames
) -> Iterator[tuple[tuple[PointsTo, ...], tuple[PureAtom, ...]]]:
    """Unfold occurrences every way: per-chain depth budget, global cell cap.

    A depth-first walk over an explicit stack. Each occurrence takes its
    empty branch at once and leaves its nonempty branch on the stack, so
    that branch, and the fresh names it draws, come only after every
    variant of the empty one. The atoms still to place form a cons list of
    ((atom, depth budget), rest) pairs.
    """
    pending: Pending = None
    for a in reversed(heap.spatial):
        pending = ((a, bound.max_unfold), pending)
    # (atoms to place, cells, pure part, occurrence to unfold first or None)
    stack = [(pending, (), heap.pure, None)]
    while stack:
        pending, cells, pure, unfold = stack.pop()
        if unfold is not None:
            atom, budget = unfold
            spatial, rpure, _ = rec_instance(atom, reg, fresh)
            pending = ((spatial[-1], budget - 1), pending)
            for m in reversed(spatial[1:-1]):
                pending = ((m, bound.max_unfold), pending)
            pending = ((spatial[0], 0), pending)
            pure = pure + rpure
        while pending is not None:
            (atom, budget), pending = pending
            if isinstance(atom, PointsTo):
                if len(cells) >= bound.max_locs:
                    break
                cells = cells + (atom,)
                continue
            if budget > 0 and len(cells) < bound.max_locs:
                stack.append((pending, cells, pure, (atom, budget)))
            pure = pure + base_instance(atom, reg)
        else:
            yield cells, pure


def _assignments(
    cells: tuple[PointsTo, ...],
    pure_atoms: tuple[PureAtom, ...],
    stack_names: tuple[str, ...],
    kinds: dict[str, Kind],
    bound: Bound,
) -> Iterator[Env]:
    """Every satisfying stack, as one dict updated in place between yields.

    Cell roots take locations 1..n in order. The remaining variables are
    assigned in first-use order by an odometer; a pointer variable ranges
    over null, the cells and the next unused fresh location, and an atom is
    checked as soon as its last variable is assigned.
    """
    env: Env = {}
    n = len(cells)
    for i, c in enumerate(cells):
        if not isinstance(c.root, Var) or c.root.name in env:
            return
        env[c.root.name] = i + 1

    order: list[str] = []
    placed = set(env)

    def add(e: Expr) -> None:
        if isinstance(e, Var) and e.name not in placed:
            placed.add(e.name)
            order.append(e.name)

    for c in cells:
        for e in c.fields:
            add(e)
    for a in pure_atoms:
        add(a.lhs)
        add(a.rhs)
    for nm in stack_names:
        if nm not in placed:
            placed.add(nm)
            order.append(nm)

    pos = {nm: i for i, nm in enumerate(order)}
    ready: list[list[Check]] = [[] for _ in range(len(order) + 1)]
    for a in pure_atoms:
        slot = 0
        for e in (a.lhs, a.rhs):
            if isinstance(e, Var) and e.name in pos:
                slot = max(slot, pos[e.name] + 1)
        ready[slot].append(_compile(a))
    if not _all_hold(ready[0], env):
        return
    depth = len(order)
    if depth == 0:
        yield env
        return

    data_domain = tuple(bound.data_range())
    # Pointer domains by the number of fresh locations used so far.
    ptr_domains = [
        tuple(range(max(n, min(n + used + 1, bound.max_locs)) + 1))
        for used in range(depth + 1)
    ]
    is_int = [kinds.get(nm, "ptr") == "int" for nm in order]
    # Per level: the values left to try, and the fresh count on entry.
    # A value equal to the next fresh location advances the count even when
    # it is data; the canonical model order depends on that.
    domains: list[tuple[int, ...]] = [data_domain if is_int[0] else ptr_domains[0]]
    nexts = [0]
    fresh_in = [0]
    i = 0
    while True:
        k = nexts[i]
        if k == len(domains[i]):
            if i == 0:
                return
            domains.pop()
            nexts.pop()
            fresh_in.pop()
            i -= 1
            continue
        nexts[i] = k + 1
        v = domains[i][k]
        env[order[i]] = v
        used = fresh_in[i]
        if v == n + used + 1:
            used += 1
        if not _all_hold(ready[i + 1], env):
            continue
        if i + 1 == depth:
            yield env
            continue
        i += 1
        domains.append(data_domain if is_int[i] else ptr_domains[used])
        nexts.append(0)
        fresh_in.append(used)


# -------------------------------------------------------------------- verdicts


class OracleVerdict(NamedTuple):
    bounded_valid: bool
    counter: Optional[HeapModel]


def oracle_entails(
    ent: Entailment, reg: Registry, bound: Bound = DEFAULT_BOUND
) -> OracleVerdict:
    """Search for a countermodel; absence only rules out models within bound.
    `models_of` checks the registry and the left side."""
    _check_input(reg, ent.rhs)
    for m in models_of(ent.lhs, reg, bound):
        if not holds(m, ent.rhs, reg, bound):
            return OracleVerdict(False, m)
    return OracleVerdict(True, None)


def confirm_countermodel(
    model: HeapModel, ent: Entailment, reg: Registry, bound: Bound = DEFAULT_BOUND
) -> bool:
    _check_input(reg, ent.lhs, ent.rhs)
    return holds(model, ent.lhs, reg, bound) and not holds(model, ent.rhs, reg, bound)
