"""Countermodels for invalid verdicts.

A stuck leaf of shape 2b, 2c or 2d is refuted by a concrete model of its
left side's base formula.  The model is rebuilt bottom-up through the
branch (undoing substitutions, dropping unfolding freshness, re-adding
heap parts split off by Star) and confirmed against the input before it
is reported.  Imports no `engine` or `normalize`; of the engine's tree it
reads `root`, `node` and each node's `ent`, `parent` and `edge`.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from . import pure as pure_solver
from .defs import Registry, base_of
from .oracle import Cell, HeapModel, OracleError, confirm_countermodel, holds, kinds_of
from .syntax import (
    Entailment,
    Expr,
    IntLit,
    Null,
    PointsTo,
    PredOcc,
    SpatialAtom,
    SymbolicHeap,
    Var,
)


def _val(e: Expr, stack: dict[str, int]) -> int:
    """Value of a term on a stack: null is location 0."""
    if isinstance(e, Null):
        return 0
    if isinstance(e, IntLit):
        return e.value
    return stack[e.name]


def _place(
    cells: Sequence[SpatialAtom], stack: dict[str, int], heap: dict[int, Cell]
) -> bool:
    """Put each cell into `heap` at its root's value; False at a null root
    or at a location already taken."""
    for atom in cells:
        assert isinstance(atom, PointsTo)
        loc = _val(atom.root, stack)
        if loc == 0 or loc in heap:
            return False
        heap[loc] = Cell(atom.sort, tuple(_val(f, stack) for f in atom.fields))
    return True


def bad_model(heap: SymbolicHeap, reg: Registry) -> HeapModel:
    """A concrete model of a base formula in normal form: each pointer
    variable gets its own location, null 0, and data variables get a
    satisfying assignment.  Both models read the one pure context of
    `heap.pure`, which holds no pointer `=` in normal form."""
    if any(isinstance(a, PredOcc) for a in heap.spatial):
        raise OracleError("bad_model needs a base formula")
    kinds = kinds_of(heap, reg)
    ptr_names = tuple(sorted(n for n, k in kinds.items() if k == "ptr"))
    int_names = tuple(sorted(n for n, k in kinds.items() if k == "int"))
    stack = dict(pure_solver.pointer_model(heap.pure, ptr_names))
    stack.update(pure_solver.arith_model(heap.pure, int_names))
    cells: dict[int, Cell] = {}
    if not _place(heap.spatial, stack, cells):
        raise OracleError("input is not a separated base formula in NF")
    model = HeapModel(stack, cells, frozenset(ptr_names))
    if not holds(model, heap, reg):
        raise OracleError("bad_model construction failed its own check")
    return model


def _fresh_values(
    needed: list[tuple[str, str]], model: HeapModel
) -> tuple[dict[str, int], set[str]]:
    """Distinct values for variables absent from the stack: new locations
    for pointers, large pairwise-distinct integers for data."""
    stack = dict(model.stack)
    ptrs = set(model.ptr_vars)
    loc = max((0, *model.heap, *(stack[n] for n in ptrs if n in stack))) + 1
    big = 1000003
    for name, kind in needed:
        if name in stack:
            continue
        if kind == "ptr":
            stack[name] = loc
            ptrs.add(name)
            loc += 1
        else:
            stack[name] = big
            big += 1
    return stack, ptrs


def _add_peeled(
    model: HeapModel, peeled: tuple[SpatialAtom, ...], reg: Registry
) -> Optional[HeapModel]:
    """Extend the model with a minimal subheap for the atoms Star split
    off, so it satisfies the conclusion again.  Roots acquire fresh
    locations, so the added cells collide with nothing that matters."""
    cells = base_of(SymbolicHeap(peeled), reg).spatial
    needed: list[tuple[str, str]] = []
    for atom in cells:
        assert isinstance(atom, PointsTo)
        decl = reg.sorts[atom.sort]
        if isinstance(atom.root, Var):
            needed.append((atom.root.name, "ptr"))
        for (_, ft), f in zip(decl.fields, atom.fields):
            if isinstance(f, Var):
                needed.append((f.name, "int" if ft == "int" else "ptr"))
    stack, ptrs = _fresh_values(needed, model)
    heap = dict(model.heap)
    if not _place(cells, stack, heap):
        return None
    return HeapModel(stack, heap, frozenset(ptrs))


def _complete_stack(model: HeapModel, ent: Entailment, reg: Registry) -> HeapModel:
    """Give every variable of the sequent that the stack lacks a fresh value
    of its kind.  =L and LBase can remove the last left-side mention of a
    conclusion variable, so models built from the left side may miss it."""
    missing = sorted(ent.fv() - model.stack.keys())
    if not missing:
        return model
    kinds = {**kinds_of(ent.rhs, reg), **kinds_of(ent.lhs, reg)}
    stack, ptrs = _fresh_values([(n, kinds[n]) for n in missing], model)
    return HeapModel(stack, model.heap, frozenset(ptrs))


def _lift_counter(
    tree: Any, leaf_id: int, model: HeapModel, reg: Registry
) -> Optional[HeapModel]:
    """Rebuild a countermodel of the root from one of a stuck leaf by
    replaying the branch upwards, then confirm it by evaluation."""
    m: Optional[HeapModel] = model
    cur = tree.node(leaf_id)
    while cur.parent is not None and m is not None:
        edge = cur.edge
        assert edge is not None
        if edge.sub is not None:
            name, repl = edge.sub
            if isinstance(repl, Var) and repl.name not in m.stack:
                return None
            is_ptr = isinstance(repl, Null) or (
                isinstance(repl, Var) and repl.name in m.ptr_vars
            )
            stack = dict(m.stack)
            stack[name] = _val(repl, m.stack)
            ptrs = set(m.ptr_vars) | ({name} if is_ptr else set())
            m = HeapModel(stack, m.heap, frozenset(ptrs))
        if edge.peeled:
            m = _add_peeled(m, edge.peeled, reg)
        cur = tree.node(cur.parent)
    if m is None:
        return None
    root = tree.node(tree.root).ent
    names = root.fv()
    m = HeapModel(
        {n: v for n, v in m.stack.items() if n in names},
        m.heap,
        frozenset(n for n in m.ptr_vars if n in names),
    )
    m = _complete_stack(m, root, reg)
    return m if confirm_countermodel(m, root, reg) else None


def _leaf_witness(tree: Any, leaf_id: int, reg: Registry) -> Optional[HeapModel]:
    ent = tree.node(leaf_id).ent
    try:
        bad = bad_model(base_of(ent.lhs, reg), reg)
    except ValueError:
        return None
    bad = _complete_stack(bad, ent, reg)
    if holds(bad, ent.rhs, reg):
        return None  # leaf shape promised refutation but the model agrees
    return _lift_counter(tree, leaf_id, bad, reg)


