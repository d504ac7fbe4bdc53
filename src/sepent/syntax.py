"""Core terms: expressions, pure atoms, spatial atoms, symbolic heaps, entailments.

Everything is an immutable value object. A symbolic heap is a pair of a spatial
part (tuple of atoms, empty tuple meaning emp) and a pure part (tuple of atoms,
empty tuple meaning true). Equality/disequality atoms compare symmetrically so
that membership tests like "x != null in pure" do not depend on operand order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Iterable, Iterator, Mapping, Optional, Union

FRESH_MARK = "#"


# ---------------------------------------------------------------- expressions


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Null:
    def __str__(self) -> str:
        return "null"


@dataclass(frozen=True)
class IntLit:
    value: int

    def __str__(self) -> str:
        return str(self.value)


Expr = Union[Var, Null, IntLit]

NULL = Null()

# A substitution maps variable names to expressions.
Subst = Mapping[str, Expr]


def subst_expr(e: Expr, sub: Subst) -> Expr:
    if isinstance(e, Var) and e.name in sub:
        return sub[e.name]
    return e


def expr_vars(e: Expr) -> frozenset[str]:
    return frozenset((e.name,)) if isinstance(e, Var) else frozenset()


def is_fresh_name(name: str) -> bool:
    """Proof-fresh variables carry a reserved marker the parsers reject."""
    return FRESH_MARK in name


# ---------------------------------------------------------------- pure atoms


class _SymmetricAtom:
    """Mixin giving order-insensitive equality/hash over (lhs, rhs).

    The operands keep the order they were written in, so atoms print as
    given; the hash is computed once at construction because pure parts are
    probed by hash on every normalization step.
    """

    __slots__ = ("_hash",)
    lhs: Expr
    rhs: Expr
    _hash: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash(type(self)) ^ hash(self.lhs) ^ hash(self.rhs)
        )

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        if self._hash != other._hash:
            return False
        return (self.lhs == other.lhs and self.rhs == other.rhs) or (
            self.lhs == other.rhs and self.rhs == other.lhs
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # rebuild rather than restore: string hashes differ between processes
        return type(self), (self.lhs, self.rhs)


@dataclass(frozen=True, eq=False, slots=True)
class PtrEq(_SymmetricAtom):
    lhs: Expr
    rhs: Expr

    def __str__(self) -> str:
        return f"{self.lhs}={self.rhs}"


@dataclass(frozen=True, eq=False, slots=True)
class PtrNeq(_SymmetricAtom):
    lhs: Expr
    rhs: Expr

    def __str__(self) -> str:
        return f"{self.lhs}!={self.rhs}"


@dataclass(frozen=True, eq=False, slots=True)
class ArithEq(_SymmetricAtom):
    lhs: Expr
    rhs: Expr

    def __str__(self) -> str:
        return f"{self.lhs}={self.rhs}"


@dataclass(frozen=True)
class ArithLeq:
    lhs: Expr
    rhs: Expr

    def __str__(self) -> str:
        return f"{self.lhs}<={self.rhs}"


PureAtom = Union[PtrEq, PtrNeq, ArithEq, ArithLeq]


def subst_atom(a: PureAtom, sub: Subst) -> PureAtom:
    """The atom under `sub`; `a` itself when `sub` changes neither operand."""
    lhs, rhs = subst_expr(a.lhs, sub), subst_expr(a.rhs, sub)
    if lhs is a.lhs and rhs is a.rhs:
        return a
    return type(a)(lhs, rhs)


def atom_vars(a: PureAtom) -> frozenset[str]:
    return expr_vars(a.lhs) | expr_vars(a.rhs)


# -------------------------------------------------------------- spatial atoms


@dataclass(frozen=True)
class PointsTo:
    root: Expr
    sort: str
    fields: tuple[Expr, ...]

    def subst(self, sub: Subst) -> "PointsTo":
        return PointsTo(
            subst_expr(self.root, sub),
            self.sort,
            tuple(subst_expr(f, sub) for f in self.fields),
        )

    def vars(self) -> frozenset[str]:
        out = expr_vars(self.root)
        for f in self.fields:
            out |= expr_vars(f)
        return out

    def __str__(self) -> str:
        return f"{self.root}->{self.sort}({', '.join(map(str, self.fields))})"


@dataclass(frozen=True)
class PredOcc:
    pred: str
    args: tuple[Expr, ...]
    unfold: int = 0

    @property
    def root(self) -> Expr:
        """Argument 0: every definition takes its root parameter first
        (defs.role_problem rejects any other layout)."""
        return self.args[0]

    def subst(self, sub: Subst) -> "PredOcc":
        return PredOcc(self.pred, tuple(subst_expr(a, sub) for a in self.args), self.unfold)

    def with_unfold(self, n: int) -> "PredOcc":
        return PredOcc(self.pred, self.args, n)

    def vars(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for a in self.args:
            out |= expr_vars(a)
        return out

    def pretty(self, show_unfold: bool = False) -> str:
        base = f"{self.pred}({', '.join(map(str, self.args))})"
        return f"{base}^{self.unfold}" if show_unfold else base

    def __str__(self) -> str:
        return self.pretty()


SpatialAtom = Union[PointsTo, PredOcc]


def same_atom_mod_unfold(a: SpatialAtom, b: SpatialAtom) -> bool:
    """Structural equality ignoring unfolding annotations."""
    if isinstance(a, PredOcc) and isinstance(b, PredOcc):
        return a.pred == b.pred and a.args == b.args
    return a == b


# --------------------------------------------------------------- symbolic heap


@dataclass(frozen=True)
class SymbolicHeap:
    """A spatial part and a pure part, each a tuple in written order.

    Three sets derived from the pure part are kept on the instance. They
    are not fields, so equality, hashing, `repr` and `dataclasses.replace`
    ignore them:

    - `pure_set`, the pure part as a frozenset, which membership tests
      read; built on first use.
    - `apart`, roots whose every two distinct members have their `!=`
      atom in the pure part.
    - `decided`, roots whose every two members the pure part decides
      equal or apart.

    Normalization records the last two as it settles roots; see
    `settle`. Atoms added to the pure part keep all three true, so
    `add_pure`, `with_spatial` and `replace_spatial` hand them on to the
    heap they build, and the pure set grows by the new atoms alone. A heap
    built any other way starts with nothing settled.
    """

    spatial: tuple[SpatialAtom, ...] = ()
    pure: tuple[PureAtom, ...] = ()
    apart: ClassVar[frozenset[Expr]] = frozenset()
    decided: ClassVar[frozenset[Expr]] = frozenset()

    def subst(self, sub: Subst) -> "SymbolicHeap":
        return SymbolicHeap(
            tuple(a.subst(sub) for a in self.spatial),
            tuple(subst_atom(p, sub) for p in self.pure),
        )

    def fv(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for a in self.spatial:
            out |= a.vars()
        for p in self.pure:
            out |= atom_vars(p)
        return out

    @cached_property
    def pure_set(self) -> frozenset[PureAtom]:
        """The pure atoms as a frozenset."""
        return frozenset(self.pure)

    def has_pure(self, atom: PureAtom) -> bool:
        return atom in self.pure_set

    def settle(
        self,
        apart: Optional[frozenset[Expr]] = None,
        decided: Optional[frozenset[Expr]] = None,
    ) -> None:
        """Record roots found apart or decided (see the class docstring)."""
        if apart is not None and apart != self.apart:
            self.__dict__["apart"] = apart
        if decided is not None and decided != self.decided:
            self.__dict__["decided"] = decided

    def _derive(
        self, spatial: tuple[SpatialAtom, ...], extra: tuple[PureAtom, ...] = ()
    ) -> "SymbolicHeap":
        out = SymbolicHeap(spatial, self.pure + extra)
        known = self.__dict__
        if "pure_set" in known:
            out.__dict__["pure_set"] = (
                self.pure_set.union(extra) if extra else self.pure_set
            )
        for name in ("apart", "decided"):
            if name in known:
                out.__dict__[name] = known[name]
        return out

    def add_pure(self, atoms: Iterable[PureAtom]) -> "SymbolicHeap":
        """Append atoms not already present (symmetric-aware), keeping order."""
        have = self.pure_set
        extra = tuple(a for a in atoms if a not in have)
        if not extra:
            return self
        return self._derive(self.spatial, extra)

    def drop_pure_at(self, idx: int) -> "SymbolicHeap":
        return SymbolicHeap(self.spatial, self.pure[:idx] + self.pure[idx + 1 :])

    def with_spatial(self, spatial: tuple[SpatialAtom, ...]) -> "SymbolicHeap":
        """This pure part under another spatial part."""
        return self._derive(spatial)

    def replace_spatial(self, idx: int, atoms: Iterable[SpatialAtom]) -> "SymbolicHeap":
        new = self.spatial[:idx] + tuple(atoms) + self.spatial[idx + 1 :]
        return self._derive(new)

    def pred_occs(self) -> Iterator[tuple[int, PredOcc]]:
        for i, a in enumerate(self.spatial):
            if isinstance(a, PredOcc):
                yield i, a

    def points_tos(self) -> Iterator[tuple[int, PointsTo]]:
        for i, a in enumerate(self.spatial):
            if isinstance(a, PointsTo):
                yield i, a

    def atom_at_root(self, root: Expr) -> Optional[SpatialAtom]:
        for a in self.spatial:
            if a.root == root:
                return a
        return None

    def pretty(self, show_unfold: bool = False) -> str:
        if self.spatial:
            parts = [
                a.pretty(show_unfold) if isinstance(a, PredOcc) else str(a)
                for a in self.spatial
            ]
            sp = " * ".join(parts)
        else:
            sp = "emp"
        if self.pure:
            return sp + " /\\ " + " /\\ ".join(map(str, self.pure))
        return sp

    def __str__(self) -> str:
        return self.pretty()


EMP = SymbolicHeap()


# ----------------------------------------------------------------- entailment


@dataclass(frozen=True)
class Entailment:
    lhs: SymbolicHeap
    rhs: SymbolicHeap

    def subst(self, sub: Subst) -> "Entailment":
        return Entailment(self.lhs.subst(sub), self.rhs.subst(sub))

    def fv(self) -> frozenset[str]:
        return self.lhs.fv() | self.rhs.fv()

    def pretty(self, show_unfold: bool = True) -> str:
        return f"{self.lhs.pretty(show_unfold)} |- {self.rhs.pretty(False)}"

    def __str__(self) -> str:
        return self.pretty()


class FreshNames:
    """Session-local fresh variable generator; names are parser-rejected."""

    def __init__(self) -> None:
        self._n = 0

    def make(self, base: str) -> str:
        self._n += 1
        stem = base.split(FRESH_MARK, 1)[0]
        return f"{stem}{FRESH_MARK}{self._n}"
