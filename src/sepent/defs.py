r"""Inductive definitions: the template, wellformedness, and unfolding.

A definition has one implicit base branch (emp /\ root=seg [/\ src=tgt]) and one
recursive branch consisting of a head cell at the root, a matrix of nested
occurrences rooted at head fields, a single designated recursive occurrence
continuing the segment, and a pure side (guard, optional order atom over the
source pair, extra arithmetic atoms).

Wellformedness enforces the template shape plus:
  C1  every existential other than the inner order source is a head field value;
  C2  matrix occurrences are rooted at head-field existentials and their other
      arguments avoid matrix roots unless they are head fields themselves;
  C3  no mutual recursion between distinct predicates (self-recursion is the
      template, including self occurrences in the matrix).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Literal, Optional, Sequence

from .syntax import (
    ArithEq,
    Expr,
    FreshNames,
    IntLit,
    Null,
    PointsTo,
    PredOcc,
    PtrEq,
    PtrNeq,
    PureAtom,
    SpatialAtom,
    SymbolicHeap,
    Var,
    subst_atom,
    subst_expr,
)


class Role(str, Enum):
    ROOT = "root"
    SEG = "seg"
    BORDER = "border"
    TRANS = "border"  # the same pass-through role, also spelled `trans`
    SRC = "src"
    TGT = "tgt"

    @classmethod
    def _missing_(cls, value: object) -> Optional[Role]:
        return cls.BORDER if value == "trans" else None


Kind = Literal["ptr", "int"]


@dataclass(frozen=True)
class Param:
    name: str
    role: Role
    kind: Kind = "ptr"


@dataclass(frozen=True)
class SortDecl:
    """A record sort; each field is (name, target) with target a sort or "int"."""

    name: str
    fields: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class RecBranch:
    exists: tuple[str, ...]
    head: PointsTo
    matrix: tuple[PredOcc, ...]
    rec: PredOcc
    order: Optional[PureAtom]  # relates Var(src param) and Var(src existential)
    arith: tuple[PureAtom, ...]


@dataclass(frozen=True)
class InductiveDef:
    name: str
    params: tuple[Param, ...]
    rec: RecBranch
    # The root is parameter 0. These are the positions of the segment and
    # of the (src, tgt) order pair, meaningful once role_problem accepts
    # the parameters; a missing segment reads as None.
    seg_index: int = field(init=False, repr=False, compare=False)
    order_pair: Optional[tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        roles = [p.role for p in self.params]
        seg = roles.index(Role.SEG) if Role.SEG in roles else None
        pair = None
        if Role.SRC in roles and Role.TGT in roles:
            pair = (roles.index(Role.SRC), roles.index(Role.TGT))
        object.__setattr__(self, "seg_index", seg)
        object.__setattr__(self, "order_pair", pair)

    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def src_existential(self) -> Optional[str]:
        """The inner order source: the recursive occurrence's src argument."""
        if self.order_pair is None:
            return None
        arg = self.rec.rec.args[self.order_pair[0]]
        return arg.name if isinstance(arg, Var) else None


@dataclass
class Registry:
    sorts: dict[str, SortDecl]
    preds: dict[str, InductiveDef]
    # check_wellformed's answer, with the entries it was computed from
    checked: Optional[tuple[tuple, tuple[str, ...]]] = field(
        default=None, init=False, repr=False, compare=False
    )


def _expr_name(e: Expr) -> Optional[str]:
    return e.name if isinstance(e, Var) else None


def _entries(reg: Registry) -> tuple:
    return (tuple(reg.sorts.items()), tuple(reg.preds.items()))


def check_wellformed(reg: Registry) -> list[str]:
    """Return all template/C1/C2/C3 violations as human-readable diagnostics.
    The answer is kept on the registry for `known_problems`."""
    return check_registry(reg, [check_def(reg, d) for d in reg.preds.values()])


def check_registry(reg: Registry, found: Iterable[Sequence[str]]) -> list[str]:
    """`check_wellformed`'s answer from the `check_def` findings of each
    definition, in registry order: adds the C3 findings and keeps the
    answer on the registry."""
    out = [problem for problems in found for problem in problems]
    out.extend(_check_c3(reg))
    reg.checked = (_entries(reg), tuple(out))
    return out


def known_problems(reg: Registry) -> list[str]:
    """What `check_wellformed` answers, read from the registry while its
    entries compare equal to the ones last checked (sorts and definitions
    are immutable), so that asking at every call costs one comparison."""
    kept = reg.checked
    if kept is not None and kept[0] == _entries(reg):
        return list(kept[1])
    return check_wellformed(reg)


def role_problem(name: str, params: tuple[Param, ...]) -> Optional[str]:
    """The fault in a parameter list's roles, if any. The root must come
    first, because an occurrence's root is its argument 0."""
    roles = [p.role for p in params]
    if roles.count(Role.ROOT) != 1 or roles.count(Role.SEG) != 1:
        return f"{name}: needs exactly one root and one seg parameter"
    if roles[0] != Role.ROOT:
        return f"{name}: the root parameter must come first"
    if roles.count(Role.SRC) != roles.count(Role.TGT) or roles.count(Role.SRC) > 1:
        return f"{name}: src/tgt must appear as a pair, at most once"
    return None


def check_def(reg: Registry, d: InductiveDef) -> list[str]:
    """The template, C1, C2 and kind violations of one definition. They
    depend on the definition, the declaration of its head cell's sort and
    the parameters of the other predicates in its matrix.

    Each term must stand at the kind of its position: head fields take
    their sort's kinds, the arguments of the recursive and matrix
    occurrences those of their predicate's parameters, and the operands of
    the order and arithmetic atoms are data. A parameter has its declared
    kind, an existential the kind of its first position."""
    out: list[str] = []
    problem = role_problem(d.name, d.params)
    if problem is not None:
        out.append(problem)
        return out
    names = d.param_names()
    if len(set(names)) != len(names):
        out.append(f"{d.name}: duplicate parameter names")
        return out

    kinds: dict[str, Optional[Kind]] = {}
    for p in d.params:
        kinds[p.name] = p.kind
        if p.role in (Role.ROOT, Role.SEG) and p.kind != "ptr":
            out.append(f"{d.name}: {p.name} must be pointer-sorted")
        if p.role in (Role.SRC, Role.TGT) and p.kind != "int":
            out.append(f"{d.name}: {p.name} must be integer-sorted")

    # Most terms are variables at their first kind. Each loop below tests
    # that inline and calls `_misuse` for the rest only: a call per term
    # showed in the cost of every `prove`.
    rb = d.rec
    head = rb.head
    if type(head.root) is not Var or head.root.name != names[0]:
        out.append(f"{d.name}: head cell must be rooted at the root parameter")
    decl = reg.sorts.get(head.sort)
    if decl is None:
        out.append(f"{d.name}: unknown sort {head.sort}")
    else:
        if len(decl.fields) != len(head.fields):
            out.append(f"{d.name}: head cell arity differs from sort {decl.name}")
        for (_, target), f in zip(decl.fields, head.fields):
            k: Kind = "int" if target == "int" else "ptr"
            if type(f) is not Var or kinds.setdefault(f.name, k) != k:
                _misuse(out, d.name, f, k, head, kinds)

    ex = set(rb.exists)
    if len(rb.exists) != len(ex):
        out.append(f"{d.name}: duplicate existentials")
    head_ex = [f.name for f in head.fields if type(f) is Var and f.name in ex]
    if len(head_ex) != len(set(head_ex)):
        out.append(f"{d.name}: an existential occurs twice among head fields")
    head_ex_set = set(head_ex)

    # C1: every existential except the inner order source is a head field.
    src_ex = d.src_existential()
    for w in rb.exists:
        if w != src_ex and w not in head_ex_set:
            out.append(f"{d.name}: C1 violated, existential {w} is not a head field")

    # Recursive occurrence shape: P(X, F, borders.., u, src', tgt).
    if rb.rec.pred != d.name:
        out.append(f"{d.name}: recursive occurrence must be {d.name} itself")
    elif len(rb.rec.args) != len(d.params):
        out.append(f"{d.name}: recursive occurrence arity mismatch")
    else:
        # An argument passed unchanged has its parameter's kind; the root
        # and the src take their parameter's kind here.
        for p, arg in zip(d.params, rb.rec.args):
            n = arg.name if type(arg) is Var else None
            if p.role == Role.ROOT or p.role == Role.SRC:
                if n is None or kinds.setdefault(n, p.kind) != p.kind:
                    _misuse(out, d.name, arg, p.kind, rb.rec, kinds)
                if p.role == Role.ROOT and n not in head_ex_set:
                    out.append(
                        f"{d.name}: recursive root must be a head-field existential"
                    )
                if p.role == Role.SRC and n not in ex:
                    out.append(f"{d.name}: recursive src must be an existential")
            elif n != p.name:
                out.append(
                    f"{d.name}: recursive occurrence must pass {p.name} unchanged"
                )

    # C2: matrix occurrences sit at head-field existentials.
    matrix_roots = {_expr_name(m.root) for m in rb.matrix}
    for m in rb.matrix:
        if m.pred not in reg.preds:
            out.append(f"{d.name}: unknown predicate {m.pred} in matrix")
            continue
        target = reg.preds[m.pred]
        if len(m.args) != len(target.params):
            out.append(f"{d.name}: matrix occurrence {m.pred} arity mismatch")
            continue
        rname = _expr_name(m.root)
        k = target.params[0].kind
        if rname is None or kinds.setdefault(rname, k) != k:
            _misuse(out, d.name, m.root, k, m, kinds)
        if rname not in head_ex_set:
            out.append(
                f"{d.name}: C2 violated, matrix root {m.root} is not a head field"
            )
        for p, a in zip(target.params[1:], m.args[1:]):
            n = a.name if type(a) is Var else None
            if n is None or kinds.setdefault(n, p.kind) != p.kind:
                _misuse(out, d.name, a, p.kind, m, kinds)
            if n is not None and n in ex and n not in head_ex_set:
                out.append(f"{d.name}: C2 violated, matrix argument {n} not a head field")
            if n is not None and n not in head_ex_set and n in matrix_roots:
                out.append(f"{d.name}: C2 violated, matrix argument {n} is a matrix root")

    # Order atom must relate the src parameter and the src existential.
    order = rb.order
    if d.order_pair is not None:
        if order is None:
            out.append(f"{d.name}: src/tgt pair requires an order atom")
        else:
            ops = {_expr_name(order.lhs), _expr_name(order.rhs)}
            if names[d.order_pair[0]] not in ops or src_ex is None or src_ex not in ops:
                out.append(f"{d.name}: order atom must relate src and its existential")
    elif order is not None:
        out.append(f"{d.name}: order atom without a src/tgt pair")
    # An order atom that relates the src parameter and the src existential
    # reads both as data, the kind the recursive occurrence gives them.
    for a in rb.arith:
        if isinstance(a, (PtrEq, PtrNeq)):
            out.append(f"{d.name}: unexpected pointer atom {a} in recursive branch")
        else:
            for e in (a.lhs, a.rhs):
                if type(e) is not Var or kinds.setdefault(e.name, "int") != "int":
                    _misuse(out, d.name, e, "int", a, kinds)

    return out


def _misuse(
    out: list[str], owner: str, e: Expr, kind: Kind, atom: object, kinds: dict[str, Optional[Kind]]
) -> None:
    """Append to `out` why the term of the atom cannot stand at a position
    of this kind, if it cannot, after the name of the definition that owns
    the atom, if any. A variable takes the kind `kinds` holds for it, or
    else this one, which is recorded; a variable found at both kinds is
    reported once and then recorded as None."""
    if type(e) is Var:
        seen = kinds.setdefault(e.name, kind)
        if seen == kind or seen is None:
            return
        kinds[e.name] = None
        problem = f"mixed pointer/integer use of {e.name!r}"
    elif kind == "ptr":
        if type(e) is not IntLit:
            return
        problem = f"integer literal {e} used as a pointer"
    elif type(e) is Null:
        problem = "null used as an integer"
    else:
        return
    out.append(f"{owner}: {problem} in {atom}" if owner else f"{problem} in {atom}")


def _check_c3(reg: Registry) -> list[str]:
    # Cycle over distinct names: edge P -> Q for matrix occurrences with Q != P.
    edges: dict[str, set[str]] = {
        n: {m.pred for m in d.rec.matrix if m.pred != n} for n, d in reg.preds.items()
    }
    # One depth-first walk; a back edge lands on a predicate on a cycle.
    state: dict[str, int] = {}  # 1 while on the walk's path, 2 once left

    def visit(n: str) -> Optional[str]:
        state[n] = 1
        for m in sorted(edges[n] & edges.keys()):
            if state.get(m) == 1:
                return m
            hit = None if m in state else visit(m)
            if hit is not None:
                return hit
        state[n] = 2
        return None

    for n in sorted(edges):
        hit = None if n in state else visit(n)
        if hit is not None:
            return [f"C3 violated: {hit} participates in mutual recursion"]
    return []


def input_problems(lhs: SymbolicHeap, rhs: SymbolicHeap, reg: Registry) -> list[str]:
    """What keeps the registry from reading the entailment lhs |- rhs, in
    three stages, each reported only when the ones before it pass:
    conclusion variables missing from the premise; atoms the registry
    cannot interpret (cells of an undeclared sort or with another number
    of fields than their sort has, occurrences of an undeclared predicate
    or with another number of arguments than its parameters); and terms
    that stand where the other kind goes (an integer literal as a pointer,
    null as an integer, a variable used as both, once per variable over
    both sides)."""
    extra = sorted(rhs.fv() - lhs.fv())
    if extra:
        return [f"conclusion variables missing from the premise: {', '.join(extra)}"]
    shapes: list[str] = []
    out: list[str] = []
    # As in `check_def`, a variable at its first kind is passed inline.
    kinds: dict[str, Optional[Kind]] = {}
    for heap in (lhs, rhs):
        for a in heap.spatial:
            if type(a) is PointsTo:
                decl = reg.sorts.get(a.sort)
                if decl is None:
                    shapes.append(f"unknown sort {a.sort!r}")
                elif len(a.fields) != len(decl.fields):
                    shapes.append(f"{a.sort} has {len(decl.fields)} fields")
                else:
                    e = a.root
                    if type(e) is not Var or kinds.setdefault(e.name, "ptr") != "ptr":
                        _misuse(out, "", e, "ptr", a, kinds)
                    for (_, target), e in zip(decl.fields, a.fields):
                        k: Kind = "int" if target == "int" else "ptr"
                        if type(e) is not Var or kinds.setdefault(e.name, k) != k:
                            _misuse(out, "", e, k, a, kinds)
            else:
                d = reg.preds.get(a.pred)
                if d is None:
                    shapes.append(f"unknown predicate {a.pred!r}")
                elif len(a.args) != len(d.params):
                    shapes.append(f"{a.pred} expects {len(d.params)} arguments")
                else:
                    for p, e in zip(d.params, a.args):
                        if type(e) is not Var or kinds.setdefault(e.name, p.kind) != p.kind:
                            _misuse(out, "", e, p.kind, a, kinds)
        for a in heap.pure:
            k = "ptr" if type(a) is PtrEq or type(a) is PtrNeq else "int"
            for e in (a.lhs, a.rhs):
                if type(e) is not Var or kinds.setdefault(e.name, k) != k:
                    _misuse(out, "", e, k, a, kinds)
    return shapes or out


# -------------------------------------------------------------------- unfolding


def seg_of(occ: PredOcc, reg: Registry) -> Expr:
    """The occurrence's segment argument."""
    return occ.args[reg.preds[occ.pred].seg_index]


def order_of(occ: PredOcc, reg: Registry) -> Optional[tuple[Expr, Expr]]:
    """The occurrence's (src, tgt) arguments, or None without an order pair."""
    pair = reg.preds[occ.pred].order_pair
    return None if pair is None else (occ.args[pair[0]], occ.args[pair[1]])


def base_instance(occ: PredOcc, reg: Registry) -> tuple[PureAtom, ...]:
    """Pure atoms of the base branch instantiated at this occurrence."""
    atoms: list[PureAtom] = [PtrEq(occ.root, seg_of(occ, reg))]
    pair = order_of(occ, reg)
    if pair is not None:
        atoms.append(ArithEq(*pair))
    return tuple(atoms)


def rec_instance(
    occ: PredOcc, reg: Registry, fresh: FreshNames
) -> tuple[tuple[SpatialAtom, ...], tuple[PureAtom, ...], dict[str, Expr]]:
    """Recursive branch at this occurrence with fresh existentials.

    Returns (spatial atoms, pure atoms, substitution used). The recursive
    occurrence carries occ.unfold + 1 and matrix occurrences carry 0.
    """
    d = reg.preds[occ.pred]
    sub: dict[str, Expr] = dict(zip(d.param_names(), occ.args))
    for w in d.rec.exists:
        sub[w] = Var(fresh.make(w))
    head = d.rec.head.subst(sub)
    matrix = tuple(m.subst(sub).with_unfold(0) for m in d.rec.matrix)
    rec = d.rec.rec.subst(sub).with_unfold(occ.unfold + 1)
    pure: list[PureAtom] = [guard_of(occ, reg)]
    if d.rec.order is not None:
        pure.append(subst_atom(d.rec.order, sub))
    pure.extend(subst_atom(a, sub) for a in d.rec.arith)
    return (head, *matrix, rec), tuple(pure), sub


def guard_of(atom: SpatialAtom, reg: Registry) -> Optional[PureAtom]:
    """Guard formula: true (None) for cells, root != seg for occurrences."""
    if isinstance(atom, PointsTo):
        return None
    return PtrNeq(atom.root, seg_of(atom, reg))


def guards(heap: SymbolicHeap, reg: Registry) -> tuple[Optional[PureAtom], ...]:
    """`guard_of` of each spatial atom, kept on the heap for `reg`, whose
    definitions do not change while the heap is in use."""
    kept = heap.__dict__.get("guards")
    if kept is not None and kept[0] is reg:
        return kept[1]
    out = tuple(guard_of(a, reg) for a in heap.spatial)
    heap.__dict__["guards"] = (reg, out)
    return out


# -------------------------------------------------------------- one-step bases


def base_of(heap: SymbolicHeap, reg: Registry) -> SymbolicHeap:
    """Replace each occurrence by its minimal nonempty materialization.

    The head cell is emitted with the recursive root replaced by the segment
    argument and the inner order source by the target; matrix occurrences are
    materialized the same way, except that a matrix occurrence of a predicate
    already being materialized takes its empty branch (its root collapses to
    its own segment argument), which keeps the construction finite.

    The new names carry the tag `b` after the fresh-name marker, which no
    proof-fresh name has, so they are apart from the heap's names.
    """
    fresh = FreshNames("b")
    cells: list[PointsTo] = []
    extra: list[PureAtom] = []
    for atom in heap.spatial:
        if isinstance(atom, PointsTo):
            cells.append(atom)
        else:
            _materialize(atom, reg, fresh, cells, extra, frozenset())
    return heap.with_spatial(tuple(cells)).add_pure(extra)


def _materialize(
    occ: PredOcc,
    reg: Registry,
    fresh: FreshNames,
    spatial: list[PointsTo],
    pure: list[PureAtom],
    active: frozenset[str],
) -> None:
    d = reg.preds[occ.pred]
    sub: dict[str, Expr] = dict(zip(d.param_names(), occ.args))
    rec_root = d.rec.rec.root
    assert isinstance(rec_root, Var)
    src_ex = d.src_existential()
    matrix_roots = {m.root.name for m in d.rec.matrix if isinstance(m.root, Var)}
    sub[rec_root.name] = seg_of(occ, reg)
    pair = order_of(occ, reg)
    if src_ex is not None and pair is not None:
        sub[src_ex] = pair[1]
    for w in d.rec.exists:
        if w not in sub and w not in matrix_roots:
            sub[w] = Var(fresh.make(w))
    cyclic = [m for m in d.rec.matrix if m.pred in active or m.pred == d.name]
    for m in d.rec.matrix:
        root = m.root
        assert isinstance(root, Var)
        if root.name in sub:
            continue
        if m in cyclic:
            seg_arg = seg_of(m, reg)
            if isinstance(seg_arg, Var) and seg_arg.name in matrix_roots:
                seg_arg = Var(fresh.make(root.name))  # unresolvable chain
            sub[root.name] = subst_expr(seg_arg, sub)
        else:
            sub[root.name] = Var(fresh.make(root.name))

    spatial.append(d.rec.head.subst(sub))
    pure.append(guard_of(occ, reg))
    if d.rec.order is not None:
        pure.append(subst_atom(d.rec.order, sub))
    pure.extend(subst_atom(a, sub) for a in d.rec.arith)
    for m in d.rec.matrix:
        mi = m.subst(sub)
        if m in cyclic:
            pair = order_of(mi, reg)
            if pair is not None:
                pure.append(ArithEq(*pair))
        else:
            _materialize(mi, reg, fresh, spatial, pure, active | {d.name})
