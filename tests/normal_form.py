"""The normal form the normalization rules establish, and a driver that
applies them to a fixpoint.

`sepent.normalize` gives one step at a time, as the prover takes them.
These state what the steps add up to: `nf_failures` lists the clauses of
the normal-form definition a heap fails, and `normalize` closes an
entailment under the rules, one output per ExM branch. A heap under test
may still hold pointer equalities, which the prover's pure solver
refuses, so clause 6 asks the reference solver of `test_pure`.
"""

from sepent.defs import Registry, guard_of
from sepent.normalize import normalize_step
from sepent.syntax import (
    ArithEq,
    Entailment,
    NULL,
    PredOcc,
    PtrEq,
    PtrNeq,
    SymbolicHeap,
    Var,
)
from test_pure import reference_satisfiable


def nf_failures(heap: SymbolicHeap, reg: Registry) -> tuple[int, ...]:
    """Failed clause numbers of the normal-form definition (empty when NF)."""
    pi = heap.pure
    have = heap.pure_set
    fails: set[int] = set()
    for a in heap.spatial:
        if isinstance(a, PredOcc):
            g = guard_of(a, reg)
            if g is not None and g not in have:
                fails.add(1)
        if PtrNeq(a.root, NULL) not in have:
            fails.add(2)
    roots = [a.root for a in heap.spatial]
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if PtrNeq(roots[i], roots[j]) not in have:
                fails.add(3)
    for p in pi:
        if isinstance(p, PtrEq):
            fails.add(4)
        elif isinstance(p, ArithEq) and (
            isinstance(p.lhs, Var) or isinstance(p.rhs, Var)
        ):
            fails.add(4)
        elif isinstance(p, PtrNeq) and p.lhs == p.rhs:
            fails.add(5)
    if not reference_satisfiable(pi):
        fails.add(6)
    return tuple(sorted(fails))


def is_nf(heap: SymbolicHeap, reg: Registry) -> bool:
    return not nf_failures(heap, reg)


def normalize(
    ent: Entailment, reg: Registry
) -> list[tuple[Entailment, tuple[str, ...]]]:
    """Close the entailment under all six rules; one output per ExM branch,
    each paired with the rule labels applied on its path."""
    out: list[tuple[Entailment, tuple[str, ...]]] = []
    stack: list[tuple[Entailment, tuple[str, ...]]] = [(ent, ())]
    while stack:
        e, trace = stack.pop()
        step = normalize_step(e, reg)
        if step is None:
            out.append((e, trace))
            continue
        for p in reversed(step.premises):
            stack.append((p, trace + (step.label,)))
    return out
