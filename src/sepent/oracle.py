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
sight. The check is compiled once per call: every term of the heap, and of
every definition step it reaches, becomes a variable to look up or a
constant. `oracle_entails` compiles its right side once for all the models
it checks.

An unfolding of the premise can be settled before any of its models is
enumerated (partial evaluation). The models of one unfolding that give its
pointer variables the same values differ only in data, so its pointer
shapes are enumerated alone, with the data variables left unassigned, and
the right side is walked over each with every data value left as its
variable's name. A walk ends in the comparisons it could not decide, or
gives up: where it fails, and where it needs the data to go on (a choice
point). When every walk leaves only comparisons that follow from the
unfolding's own `<=` and `=` atoms (a chain of such steps, a literal
stepping to any literal not below it), the right side holds in every model
of the unfolding, and the unfolding is skipped whole. Its models would
refute nothing. Every model of an unfolding that does not settle is checked
in full, one by one, so the first countermodel is the one a model-by-model
search finds. A model's dangling locations can differ from its shape's,
since a data value can use up a fresh location (below), but the right side
compares locations only with locations, so it cannot tell the two apart.

Model enumeration is canonical: allocated cells take locations 1..n in
expansion order and dangling values use fresh locations in first-use
order. A data value equal to the next fresh location uses it up, so a
later pointer can take that location or the one after, and two models that
differ only in a dangling location's name can both come out: at
Bound(1, 3, 0, 3), `x->c1(null)` with the atoms a<=3 and y!=x has the
models a=2, y=2 and a=2, y=3. Frozen model counts pin this order. Two
unfoldings never yield the same model: in each, every occurrence takes the
branch that the model's own root and segment values select. Within one
unfolding a variable the model does not show, such as a non-head
existential seen only in pure atoms, can take several values for the same
model. Only an unfolding with such a variable keeps the models it has
yielded, and only while it is enumerated, so the enumerator holds at most
one unfolding's models. An unfolding whose equalities contradict its own
disequalities has no models and is skipped.

`models_of`, `oracle_entails` and `confirm_countermodel` refuse what `prove`
refuses, with ValueError when called, before any model (`_check_input`).
`holds` checks no more than it compiles: it refuses a constant of the wrong
kind for its position.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Literal, NamedTuple, Optional, Union

from .defs import (
    InductiveDef,
    Kind,
    Registry,
    base_instance,
    input_problems,
    known_problems,
    rec_instance,
)
from .syntax import (
    EMP,
    FRESH_MARK,
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
    SpatialAtom,
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

    def __post_init__(self) -> None:
        # An ill-formed bound leaves out models that every well-formed one
        # keeps, so an invalid entailment could come out bounded-valid.
        if self.max_unfold < 0:
            raise ValueError(f"max_unfold must be at least 0, not {self.max_unfold}")
        if self.max_locs < 0:
            raise ValueError(f"max_locs must be at least 0, not {self.max_locs}")
        if self.data_min > self.data_max:
            raise ValueError(
                f"data_min {self.data_min} is above data_max {self.data_max}"
            )

    def data_range(self) -> range:
        return range(self.data_min, self.data_max + 1)


DEFAULT_BOUND = Bound()


class Cell(NamedTuple):
    sort: str
    values: tuple[int, ...]


# Builds a Cell without the Python-level __new__ NamedTuple generates.
_new_tuple = tuple.__new__


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
            decl = reg.sorts[cell.sort]
            vals = [
                str(v) if ftype == "int" else loc(v)
                for (_, ftype), v in zip(decl.fields, cell.values)
            ]
            lines.append(f"heap:  {loc(l)} -> {cell.sort}({', '.join(vals)})")
        return "\n".join(lines)


Env = dict[str, int]

# A value in a model; in a pointer shape, a data value can be the name of
# the premise variable that holds it.
Value = Union[int, str]


# ---------------------------------------------------------------- compiled terms


# A term compiled for evaluation: a variable name or a constant. Its value
# is `o if type(o) is int else env[o]`.
Operand = Union[str, int]


def _operand(e: Expr, ptr: bool) -> Operand:
    """The term compiled for a pointer (`ptr`) or a data position; a
    constant of the other kind raises."""
    # Callers that compile many terms test for a variable before calling:
    # a call per term showed in the cost of one-off `holds` calls.
    if type(e) is Var:
        return e.name
    if ptr:
        if type(e) is Null:
            return 0
        raise OracleError(f"integer literal {e} in pointer position")
    if type(e) is IntLit:
        return e.value
    raise OracleError("null in arithmetic position")


# A pure atom compiled for evaluation: a comparison and its two operands.
Check = tuple[Callable[[int, int], bool], Operand, Operand]
# `_implication`'s answer: a test of compared pairs, or False when the atoms
# have no model
Implication = Union[Callable[[Check], bool], Literal[False]]

_COMPARE = {PtrEq: operator.eq, PtrNeq: operator.ne, ArithEq: operator.eq, ArithLeq: operator.le}


def _compile(a: PureAtom) -> Check:
    op = _COMPARE.get(type(a))
    if op is None:
        raise TypeError(a)
    ptr = isinstance(a, (PtrEq, PtrNeq))
    lhs, rhs = a.lhs, a.rhs
    return (
        op,
        lhs.name if type(lhs) is Var else _operand(lhs, ptr),
        rhs.name if type(rhs) is Var else _operand(rhs, ptr),
    )


def _all_hold(checks: tuple[Check, ...] | list[Check], env: Env) -> bool:
    """Are the compiled atoms true?  Evaluated in order, each left operand
    before its right one; an operand without a value raises."""
    try:
        for op, lhs, rhs in checks:
            if not op(
                lhs if type(lhs) is int else env[lhs], rhs if type(rhs) is int else env[rhs]
            ):
                return False
    except KeyError as e:
        raise OracleError(f"unbound variable {e.args[0]}") from None
    return True


# ------------------------------------------------------------------ satisfaction


class _Cell(NamedTuple):
    """A points-to atom, compiled."""

    root: Operand
    sort: str
    fields: tuple[Operand, ...]  # each as its field's kind


class _Occ(NamedTuple):
    """A predicate occurrence, compiled: root and segment as pointers, the
    order pair as data, every argument as its parameter's kind."""

    step: _Step
    root: Operand
    seg: Operand
    pair: Optional[tuple[Operand, Operand]]
    args: tuple[Operand, ...]


class _Step:
    """A definition's nonempty step, compiled from its recursive branch.
    Its terms are names in the step's own environment: the parameters, then
    the existentials."""

    __slots__ = ("sort", "params", "head", "unbound", "side", "pushed")


def _bindings(d: InductiveDef) -> tuple[list[Optional[str]], tuple[str, ...]]:
    """Per head field, the existential its value binds or None, and the
    existentials no head field binds. A field binds an existential that no
    parameter and no earlier field has bound."""
    free = set(d.rec.exists)
    for p in d.params:
        free.discard(p.name)
    binds: list[Optional[str]] = []
    for e in d.rec.head.fields:
        name = e.name if type(e) is Var and e.name in free else None
        free.discard(name)
        binds.append(name)
    return binds, (tuple([w for w in d.rec.exists if w in free]) if free else ())


def _field_operands(c: PointsTo, reg: Registry) -> tuple[Operand, ...]:
    fields = reg.sorts[c.sort].fields
    return tuple(
        [
            e.name if type(e) is Var else _operand(e, ftype != "int")
            for (_, ftype), e in zip(fields, c.fields)
        ]
    )


def _compile_atom(a: SpatialAtom, reg: Registry, steps: dict[str, _Step]) -> _Cell | _Occ:
    """The atom compiled, and the step of each definition it reaches, once
    per call, in `steps`."""
    if type(a) is PointsTo:
        return _new_tuple(_Cell, (_operand(a.root, True), a.sort, _field_operands(a, reg)))
    d = reg.preds[a.pred]
    step = steps.get(a.pred)
    if step is None:
        step = steps[a.pred] = _Step()
        _compile_step(step, d, reg, steps)
    ops = tuple(
        [e.name if type(e) is Var else _operand(e, p.kind == "ptr") for p, e in zip(d.params, a.args)]
    )
    pair = d.order_pair
    if pair is not None:
        pair = (ops[pair[0]], ops[pair[1]])
    return _new_tuple(_Occ, (step, ops[0], ops[d.seg_index], pair, ops))


def _compile_step(step: _Step, d: InductiveDef, reg: Registry, steps: dict[str, _Step]) -> None:
    """Compile the step of `d` in place; it is in `steps` already, so a
    recursive occurrence finds it."""
    rb = d.rec
    binds, step.unbound = _bindings(d)
    step.sort = rb.head.sort
    step.params = tuple([p.name for p in d.params])
    # Per head field: the existential its value binds and None, or None and
    # the term the value is checked against.
    fields = zip(reg.sorts[rb.head.sort].fields, rb.head.fields, binds)
    step.head = tuple(
        [(n, None if n is not None else _operand(e, t != "int")) for (_, t), e, n in fields]
    )
    step.side = tuple([_compile(a) for a in (rb.order,) + rb.arith if a is not None])
    step.pushed = tuple([_compile_atom(m, reg, steps) for m in (rb.rec,) + rb.matrix[::-1]])


# Pending atoms of the cover check form an immutable cons list of
# (atom, env, rest) triples, so a choice point keeps its continuation as is.
Pending = Optional[tuple]

# A heap compiled for the cover check: its pure atoms, and its spatial atoms
# in reverse order, ready to push onto the pending list.
_Compiled = tuple[tuple[Check, ...], list[Union[_Cell, _Occ]]]


def _compile_heap(heap: SymbolicHeap, reg: Registry) -> _Compiled:
    steps: dict[str, _Step] = {}
    return (
        tuple([_compile(a) for a in heap.pure]),
        [_compile_atom(a, reg, steps) for a in reversed(heap.spatial)],
    )


def holds(
    model: HeapModel, heap: SymbolicHeap, reg: Registry, bound: Bound = DEFAULT_BOUND
) -> bool:
    """Does the model satisfy the symbolic heap (exact heap cover)?  The
    heap is compiled for this one call; a wrong-kind constant raises then."""
    return _holds(_compile_heap(heap, reg), model, bound)


def _holds(heap: _Compiled, model: HeapModel, bound: Bound) -> bool:
    """`holds` against a compiled heap."""
    try:
        return _covers(heap, model.stack, model.heap, bound, None)
    except KeyError as e:
        raise OracleError(f"unbound variable {e.args[0]}") from None


class _Undecided(Exception):
    """The walk over a pointer shape met what only a concrete model decides."""


def _residual(heap: _Compiled, shape: HeapModel, bound: Bound) -> Optional[tuple[Check, ...]]:
    """The heap walked over a pointer shape, a model whose data values are
    the names of premise variables: the comparisons a model of the shape
    must pass to satisfy the heap, or None when the walk fails or cannot
    tell without the data."""
    residual: list[Check] = []
    try:
        if _covers(heap, shape.stack, shape.heap, bound, residual):
            return tuple(residual)
    except _Undecided:
        pass
    return None


def _decide(
    checks: tuple[Check, ...], env: dict[str, Value], residual: Optional[list[Check]]
) -> bool:
    """`_all_hold` within the cover walk: a comparison of two ints is
    decided, one involving a name is appended to `residual`. Lookups
    raise KeyError."""
    for op, lhs, rhs in checks:
        u = lhs if type(lhs) is int else env[lhs]
        v = rhs if type(rhs) is int else env[rhs]
        if type(u) is int and type(v) is int:
            if not op(u, v):
                return False
        else:
            residual.append((op, u, v))
    return True


def _differ(u: Value, v: Value, residual: Optional[list[Check]]) -> bool:
    """Given u != v, do the two differ in every model?  Two ints do; an
    equality with a name in it is appended to `residual` instead."""
    if type(u) is int and type(v) is int:
        return True
    residual.append((operator.eq, u, v))
    return False


def _data_hint(stack: Env, cells: dict[int, Cell], bound: Bound) -> tuple[int, ...]:
    vals = set(bound.data_range())
    vals.update(stack.values())
    for c in cells.values():
        vals.update(c.values)
    return tuple(sorted(vals))


def _covers(
    heap: _Compiled,
    stack: dict[str, Value],
    cells: dict[int, Cell],
    bound: Bound,
    residual: Optional[list[Check]],
) -> bool:
    """Does the model with this stack and these cells satisfy the heap
    (exact heap cover)?  Lookups raise KeyError.

    An occurrence whose root equals its segment can only take its empty
    branch, which reads nothing but the root, the segment and the order
    pair, and any other only its nonempty one, so the walk is a loop. Its
    only choice points are existentials the head cell leaves unbound; their
    alternatives wait on an explicit stack, and a failure resumes the latest
    one after giving back the cells consumed since.

    On a concrete model `residual` is None. On a pointer shape it is a list:
    a comparison with a name in it is appended there and taken to hold, and
    a choice point raises `_Undecided`. A name is a data value, never a
    root or a segment. Without choice points the walk fails at its first
    false comparison, so on any model of the shape it answers as it does
    here with the residual's comparisons decided in order.
    """
    pure, spatial = heap
    if not _decide(pure, stack, residual):
        return False
    pending: Pending = None
    for a in spatial:
        pending = (a, stack, pending)
    used: set[int] = set()
    trail: list[int] = []  # consumed locations, in order
    # (alternatives left, head bindings, step, continuation, trail length)
    choices: list[tuple[Iterator[tuple[int, ...]], Env, _Step, Pending, int]] = []
    hint: Optional[tuple[int, ...]] = None
    while True:
        ok = True
        while pending is not None:
            atom, env, pending = pending
            if type(atom) is _Cell:
                root, sort, fields = atom
                loc = root if type(root) is int else env[root]
                cell = cells.get(loc)
                if loc == 0 or cell is None or loc in used or cell.sort != sort:
                    ok = False
                    break
                for o, v in zip(fields, cell.values):
                    u = o if type(o) is int else env[o]
                    if u != v and _differ(u, v, residual):
                        ok = False
                        break
                if not ok:
                    break
                used.add(loc)
                trail.append(loc)
                continue

            step, root, seg, pair, args = atom
            rootv = root if type(root) is int else env[root]
            segv = seg if type(seg) is int else env[seg]
            if rootv == segv:
                if pair is not None:
                    src, tgt = pair
                    u = src if type(src) is int else env[src]
                    v = tgt if type(tgt) is int else env[tgt]
                    if u != v and _differ(u, v, residual):
                        ok = False
                        break
                continue
            cell = cells.get(rootv)
            if rootv == 0 or cell is None or rootv in used or cell.sort != step.sort:
                ok = False
                break
            benv: dict[str, Value] = {}
            for name, o in zip(step.params, args):
                benv[name] = o if type(o) is int else env[o]
            for (name, o), v in zip(step.head, cell.values):
                if name is not None:
                    benv[name] = v
                    continue
                u = o if type(o) is int else benv[o]
                if u != v and _differ(u, v, residual):
                    ok = False
                    break
            if not ok:
                break
            used.add(rootv)
            trail.append(rootv)
            if step.unbound:
                if residual is not None:
                    raise _Undecided
                if hint is None:
                    hint = _data_hint(stack, cells, bound)
                alts = itertools.product(hint, repeat=len(step.unbound))
                choices.append((alts, benv, step, pending, len(trail)))
                ok = False  # the first alternative is taken below
                break
            if not _decide(step.side, benv, residual):
                ok = False
                break
            for m in step.pushed:
                pending = (m, benv, pending)
        if ok and len(used) == len(cells):
            return True

        while True:
            if not choices:
                return False
            alts, benv, step, rest, mark = choices[-1]
            used.difference_update(trail[mark:])
            del trail[mark:]
            combo = next(alts, None)
            if combo is None:
                choices.pop()
                continue
            env2 = benv.copy()
            env2.update(zip(step.unbound, combo))
            if _decide(step.side, env2, None):
                pending = rest
                for m in step.pushed:
                    pending = (m, env2, pending)
                break


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
            decl = reg.sorts[atom.sort]
            for (_, ftype), e in zip(decl.fields, atom.fields):
                note(e, "int" if ftype == "int" else "ptr")
        else:
            d = reg.preds[atom.pred]
            for p, a in zip(d.params, atom.args):
                note(a, p.kind)
    for a in heap.pure:
        k: Kind = "ptr" if isinstance(a, (PtrEq, PtrNeq)) else "int"
        note(a.lhs, k)
        note(a.rhs, k)
    return kinds


# ----------------------------------------------------------- model enumeration


# The tag of the names `_assigned` draws. The prover's fresh names carry no
# tag and `base_of`'s carry `b`, so an input may hold either, but no name
# with this one: none with `_TAGGED`, as a name's first marker starts its
# suffix.
_TAG = "o"
_TAGGED = FRESH_MARK + _TAG


def _check_input(reg: Registry, premise: SymbolicHeap, conclusion: SymbolicHeap = EMP) -> None:
    """Refuse with ValueError what `prove` refuses: a registry outside the
    template (the semantics here reads an occurrence's root as its argument
    0 too), and the `defs.input_problems` of premise |- conclusion: atoms
    the registry cannot interpret, terms at the other kind, conclusion
    variables missing from the premise. Refuse a premise variable that
    carries the tag of the enumeration's fresh names, too."""
    problems = known_problems(reg)
    if not problems:
        tagged = sorted([n for n in premise.fv() if _TAGGED in n])
        if tagged:
            problems = [f"reserved variable names in input: {', '.join(tagged)}"]
        else:
            problems = input_problems(premise, conclusion, reg)
    if problems:
        raise ValueError("; ".join(problems))


def models_of(
    heap: SymbolicHeap, reg: Registry, bound: Bound = DEFAULT_BOUND
) -> Iterator[HeapModel]:
    """All models of the heap up to the bound, canonically enumerated, each
    once. Two unfoldings never yield the same model; within one, a variable
    the models do not show (an existential no head field binds) can yield
    a model again. Only such an unfolding keeps the models it has yielded,
    until it is done, so at most one unfolding's models are kept. The
    registry and the heap are checked as `prove` checks its premise
    (`_check_input`), when this is called, not when it is iterated."""
    _check_input(reg, heap)
    return (u.model(env) for env, u in _assigned(heap, reg, bound))


def _assigned(
    heap: SymbolicHeap,
    reg: Registry,
    bound: Bound,
    settled: Optional[Callable[[_Unfolding], bool]] = None,
) -> Iterator[tuple[Env, _Unfolding]]:
    """The assignment behind each model of `models_of`, in its order, with
    its unfolding. The assignment is one dict, updated in place between
    yields. An unfolding that `settled` answers True for is passed over
    before its first assignment."""
    fresh = FreshNames(_TAG)
    stack_names = tuple(sorted(heap.fv()))
    # A stack variable an unfolding drops keeps the kind the input gives it.
    input_kinds = kinds_of(heap, reg)
    ptr_vars = frozenset(n for n in stack_names if input_kinds.get(n) == "ptr")
    hides = _hides(heap, reg)
    for cells, pure_atoms in _expand(heap, reg, bound, fresh):
        kinds = input_kinds | kinds_of(SymbolicHeap(cells, pure_atoms), reg)
        implied = _implication(pure_atoms)
        if _refuted(pure_atoms, implied):
            continue
        unfolding = _Unfolding(
            cells, pure_atoms, stack_names, ptr_vars, kinds, reg, hides, implied
        )
        if settled is not None and settled(unfolding):
            continue
        seen = None if unfolding.shown is None else set()
        for env in _assignments(cells, pure_atoms, stack_names, kinds, bound):
            if seen is not None:
                key = tuple([env[n] for n in unfolding.shown])
                if key in seen:
                    continue
                seen.add(key)
            yield env, unfolding


def _hides(heap: SymbolicHeap, reg: Registry) -> bool:
    """Can an unfolding of the heap name a variable its models do not show?
    Only an existential that no head field binds can be one."""
    todo = [a.pred for a in heap.spatial if type(a) is not PointsTo]
    seen: set[str] = set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            d = reg.preds[name]
            if _bindings(d)[1]:
                return True
            todo.extend(m.pred for m in d.rec.matrix)  # d.rec.rec is d itself
    return False


class _Unfolding:
    """An unfolding of a premise that `_refuted` does not refute.

    `implied` is the `_implication` of its pure atoms, and `layout` holds
    its cells compiled, as (location, sort, field operands).
    A model shows the stack and the cell fields. `shown` is None when the
    models show every variable an assignment binds, else the variables they
    show. The cell roots are fixed, so a variable named only in pure atoms
    can tell apart two assignments that make the same model; `hides` says
    whether the heap's unfoldings can have one.
    """

    __slots__ = (
        "cells",
        "pure_atoms",
        "stack_names",
        "ptr_vars",
        "kinds",
        "implied",
        "layout",
        "shown",
    )

    def __init__(
        self,
        cells: tuple[PointsTo, ...],
        pure_atoms: tuple[PureAtom, ...],
        stack_names: tuple[str, ...],
        ptr_vars: frozenset[str],
        kinds: dict[str, Kind],
        reg: Registry,
        hides: bool,
        implied: Callable[[Check], bool],
    ) -> None:
        self.cells = cells
        self.pure_atoms = pure_atoms
        self.stack_names = stack_names
        self.ptr_vars = ptr_vars
        self.kinds = kinds
        self.implied = implied
        self.layout = [(i + 1, c.sort, _field_operands(c, reg)) for i, c in enumerate(cells)]
        self.shown = None
        if hides:
            shown = self._shown()
            fixed = {c.root.name for c in cells if type(c.root) is Var}
            fixed.update(shown)
            for a in pure_atoms:
                if any(type(e) is Var and e.name not in fixed for e in (a.lhs, a.rhs)):
                    self.shown = tuple(shown)
                    break

    def _shown(self) -> list[str]:
        """The variables the models show, a name perhaps more than once."""
        shown = list(self.stack_names)
        shown += [o for _, _, ops in self.layout for o in ops if type(o) is str]
        return shown

    def data(self) -> frozenset[str]:
        """The variables the models show of kind int, whose values a pointer
        shape leaves open."""
        kinds = self.kinds
        if "int" not in kinds.values():
            return frozenset()
        return frozenset([n for n in self._shown() if kinds.get(n) == "int"])

    def model(self, env: Env, keep: frozenset[str] = frozenset()) -> HeapModel:
        """The model the assignment makes. Each variable of `keep` stands
        for its value as its name, so with the variables of `data` this
        is the model's pointer shape."""
        return HeapModel(
            {n: n if n in keep else env[n] for n in self.stack_names},
            {
                loc: _new_tuple(
                    Cell, (sort, tuple([o if type(o) is int or o in keep else env[o] for o in ops]))
                )
                for loc, sort, ops in self.layout
            },
            self.ptr_vars,
        )


def _refuted(pure_atoms: tuple[PureAtom, ...], implied: Implication) -> bool:
    """Do the atoms have no model: do the equalities force together the two
    sides of a disequality, or do the order chains put a literal below a
    smaller one (`implied`, the atoms' `_implication`, is False)?"""
    if implied is False:
        return True
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
    return any([isinstance(a, PtrNeq) and find(a.lhs) == find(a.rhs) for a in pure_atoms])


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
    ints: bool = True,
) -> Iterator[Env]:
    """Every satisfying stack, as one dict updated in place between yields.

    Cell roots take locations 1..n in order. A cell rooted at null makes no
    stack. The remaining variables are assigned in first-use order by
    an odometer; a pointer variable ranges over null, the cells and the
    next unused fresh location, and an atom is checked as soon as its last
    variable is assigned.

    Without `ints` the variables of kind int stay unassigned and only the
    pointer atoms are checked, so only pointer values use up fresh
    locations. Every model's pointer part, its dangling locations renamed
    in first-use order, is then one of the stacks.
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

    if not ints:
        order = [nm for nm in order if kinds.get(nm, "ptr") != "int"]
        pure_atoms = tuple([a for a in pure_atoms if type(a) is PtrEq or type(a) is PtrNeq])
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
        checks = ready[i + 1]
        if checks and not _all_hold(checks, env):
            continue
        if i + 1 == depth:
            yield env
            continue
        i += 1
        domains.append(data_domain if is_int[i] else ptr_domains[used])
        nexts.append(0)
        fresh_in.append(used)


# -------------------------------------------------------------------- verdicts


def _implication(atoms: tuple[PureAtom, ...]) -> Implication:
    """Which data comparisons the atoms' `<=` and `=` imply, as a test of
    a compared pair (op, u, v), each side a variable name or an int; False
    when the atoms order a literal below a smaller one and so have no model.

    u <= v is implied by a chain of `<=` and `=` steps from u to v, in
    which a literal steps to any literal not below it; u = v by chains
    both ways. No other comparison is implied.
    """
    succ: dict[Value, list[Value]] = {}
    for a in atoms:
        if type(a) is ArithLeq or type(a) is ArithEq:
            u, v = [e.name if type(e) is Var else e.value for e in (a.lhs, a.rhs)]
            succ.setdefault(u, []).append(v)
            if type(a) is ArithEq:
                succ.setdefault(v, []).append(u)
    literals = [c for c in succ if type(c) is int]

    def le(u: Value, v: Value) -> bool:
        todo = [u]
        seen = {u}
        while todo:
            w = todo.pop()
            if w == v or (type(w) is int and type(v) is int and w <= v):
                return True
            steps = succ.get(w, [])
            if type(w) is int:
                steps = steps + [c for c in literals if c > w]
            for z in steps:
                if z not in seen:
                    seen.add(z)
                    todo.append(z)
        return False

    if any([le(c, c - 1) for c in literals]):
        return False

    def implied(check: Check) -> bool:
        op, u, v = check
        if op is operator.le:
            return le(u, v)
        return op is operator.eq and le(u, v) and le(v, u)

    return implied


def _settled(rhs: _Compiled, u: _Unfolding, bound: Bound) -> bool:
    """Does the right side hold in every model of the unfolding, by its
    pointer shapes alone?  Each shape is walked once (`_residual`); the
    answer is True when every residual's comparisons follow from the
    unfolding's own arithmetic atoms, which each of its models satisfies.

    A model's shape is one of the stacks `_assignments` gives without
    ints, once its dangling locations are renamed in first-use order. The
    right side reads every variable at the kind the premise gives it
    (`_check_input`), so its walk compares locations only with locations,
    for equality, and cannot tell the two apart. A shape the walk fails or
    cannot decide on answers False, and so does an unfolding whose models
    show no data.
    """
    data = u.data()
    if not data:
        return False
    implied = u.implied
    for env in _assignments(u.cells, u.pure_atoms, u.stack_names, u.kinds, bound, ints=False):
        residual = _residual(rhs, u.model(env, data), bound)
        if residual is None or not all(map(implied, residual)):
            return False
    return True


class OracleVerdict(NamedTuple):
    bounded_valid: bool
    counter: Optional[HeapModel]


def oracle_entails(
    ent: Entailment, reg: Registry, bound: Bound = DEFAULT_BOUND
) -> OracleVerdict:
    """Search for a countermodel; absence only rules out models within bound.

    The premise's models come as `models_of` yields them, less those of
    each unfolding that `_settled` shows the right side holds in, and the
    right side, compiled once, is checked on each of them in full. The
    first model that fails it is the countermodel, as if every model were
    checked in turn. The entailment is checked as `prove` checks it
    (`_check_input`) before any model."""
    _check_input(reg, ent.lhs, ent.rhs)
    rhs = _compile_heap(ent.rhs, reg)
    for env, u in _assigned(ent.lhs, reg, bound, lambda u: _settled(rhs, u, bound)):
        model = u.model(env)
        if not _holds(rhs, model, bound):
            return OracleVerdict(False, model)
    return OracleVerdict(True, None)


def confirm_countermodel(
    model: HeapModel, ent: Entailment, reg: Registry, bound: Bound = DEFAULT_BOUND
) -> bool:
    _check_input(reg, ent.lhs, ent.rhs)
    return holds(model, ent.lhs, reg, bound) and not holds(model, ent.rhs, reg, bound)
