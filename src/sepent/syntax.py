"""Core terms: expressions, pure atoms, spatial atoms, symbolic heaps, entailments.

Everything is an immutable value object. A symbolic heap is a pair of a spatial
part (tuple of atoms, empty tuple meaning emp) and a pure part (tuple of atoms,
empty tuple meaning true). Equality/disequality atoms compare symmetrically so
that membership tests like "x != null in pure" do not depend on operand order.
Variables are interned, so term equality and hashing mostly run as identity
and address checks.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    ClassVar,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Union,
)

FRESH_MARK = "#"


# ---------------------------------------------------------------- expressions


class Var:
    """A variable, one object per name for as long as any reference to it
    is alive (hash-consing), so equality is identity and the hash is the
    address: both computed in C on every dict and set probe. The table of
    live variables holds them weakly, so it shrinks as names die. Copies
    and pickles come back as the live object of the same name, or as a new
    one in another process: addresses differ between processes, so no
    output may depend on the order of a set or dict keyed by terms."""

    __slots__ = ("name", "__weakref__")
    name: str

    def __new__(cls, name: str) -> "Var":
        v = _VARS.get(name)
        if v is None:
            v = object.__new__(cls)
            object.__setattr__(v, "name", name)
            _VARS[name] = v
        return v

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError(f"cannot delete field {attr!r}")

    def __reduce__(self) -> tuple:
        return Var, (self.name,)

    def __repr__(self) -> str:
        return f"Var(name={self.name!r})"

    def __str__(self) -> str:
        return self.name


_VARS: "weakref.WeakValueDictionary[str, Var]" = weakref.WeakValueDictionary()


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
    probed by hash on every normalization step. It hashes the kind and the
    two operand hashes in sorted order. A XOR of them would be symmetric
    too, but variables hash by address, and the XOR of aligned addresses
    cancels into few distinct values: in the proof of `chain_sequent(60)`
    it left between 959 and 1,186 distinct hashes, depending on the run,
    for the 1,892 atoms of the largest pure part.
    """

    __slots__ = ("_hash",)
    lhs: Expr
    rhs: Expr
    _hash: int

    def __post_init__(self) -> None:
        a, b = hash(self.lhs), hash(self.rhs)
        key = (type(self), a, b) if a <= b else (type(self), b, a)
        object.__setattr__(self, "_hash", hash(key))

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
        # rebuild rather than restore: variable addresses differ between processes
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


def subst_pure(atoms: Iterable[PureAtom], sub: Subst) -> tuple[PureAtom, ...]:
    """The atoms under `sub`, in order. Only an atom that names a bound
    variable is handed to `subst_atom`; every other one is kept as the same
    object, which `subst_atom` would return too, without the call."""
    return tuple(
        subst_atom(a, sub)
        if (type(a.lhs) is Var and a.lhs.name in sub)
        or (type(a.rhs) is Var and a.rhs.name in sub)
        else a
        for a in atoms
    )


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
    # Argument 0: every definition takes its root parameter first
    # (defs.role_problem rejects any other layout). Stored, not a property:
    # proof search reads it on every root scan.
    root: Expr = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "root", self.args[0])

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


def _match_key(a: SpatialAtom) -> object:
    """An atom up to its unfolding annotation: an occurrence's predicate
    and arguments, or the whole cell."""
    return (a.pred, a.args) if isinstance(a, PredOcc) else a


def same_atom_mod_unfold(a: SpatialAtom, b: SpatialAtom) -> bool:
    """Structural equality ignoring unfolding annotations."""
    return _match_key(a) == _match_key(b)


def _match_identical(
    lhs: tuple[SpatialAtom, ...], rhs: tuple[SpatialAtom, ...]
) -> dict[int, int]:
    """Injective map of RHS indices to structurally identical LHS atoms,
    unfolding annotations ignored.  Greedy is enough: separated atoms with
    equal roots cannot coexist, so candidates are unique.

    Each RHS atom, in order, takes the lowest unused LHS index of its key
    (`_match_key`), as a nested scan would; the LHS is indexed by key once,
    so a call costs the two lengths, not their product."""
    if not rhs:
        return {}
    free: dict[object, list[int]] = {}
    for i in range(len(lhs) - 1, -1, -1):
        free.setdefault(_match_key(lhs[i]), []).append(i)
    out: dict[int, int] = {}
    for j, b in enumerate(rhs):
        at = free.get(_match_key(b))
        if at:
            out[j] = at.pop()
    return out


# --------------------------------------------------------------- symbolic heap


@dataclass(frozen=True)
class SymbolicHeap:
    """A spatial part and a pure part, each a tuple in written order.

    Facts derived from the two parts are kept on the instance. They are
    not fields, so equality, hashing, `repr` and `dataclasses.replace`
    ignore them. Of the pure part:

    - `pure_set`, the atoms as a frozenset, which membership tests read;
    - `pure_fv`, the free variables;
    - `apart`, the settled roots: each has its `!= null` atom, and every
      two distinct ones have their `!=` atom.

    Of the spatial part:

    - `roots`, the root of each atom;
    - `skeleton`, the predicate names and cell sorts, sorted; unfolding
      annotations do not enter it;
    - `first_at`, each root's first atom, which `atom_at_root` reads;
    - `occ_at`, each root's first occurrence by its index, which
      `engine._occ_at` reads;
    - the guard of each atom, which `defs.guards` keeps here for one
      registry.

    The two maps stand in for a scan of the spatial part at every lookup:
    a node that looks up each of its n roots pays for n atoms, not n*n.

    Of both parts: `normal_for`, a registry under which normalization has
    no step left and the Inconsistency check found the heap satisfiable,
    which `engine._select` records so as to look at most once.

    The named ones are `functools.cached_property`s, computed on first use
    and kept in the instance dict, except `apart`, which normalization
    records as NeqStar settles roots (see `settle`). A heap built from
    another one takes over the pure facts that still hold:

    - Atoms appended to the pure part keep every pure fact true, so
      `add_pure`, `with_spatial` and `replace_spatial` hand on `apart`
      and the atom set, the latter grown by the new atoms; with no new
      atom, the free variables too.
    - `subst` maps `apart` through the substitution, which maps the atoms
      one for one; an atom that names no bound variable stays the same
      object (`subst_pure`).
    - `drop_pure_at` keeps `apart` when the dropped atom is a reflexive
      equality.

    Of the spatial facts only the guards pass on, through `add_pure` and
    `with_spatial` while the spatial part stays the same: computing them
    again at every proof node made `chain` about 2% slower. `roots`,
    `skeleton` and the two maps are computed again on first use; handing
    them on too measured no faster. `normal_for` passes on with the heap
    itself, through the rules that keep a left side whole, and the engine
    hands it to Star's premises. A heap built any other way starts with
    nothing derived.
    """

    spatial: tuple[SpatialAtom, ...] = ()
    pure: tuple[PureAtom, ...] = ()
    apart: ClassVar[frozenset[Expr]] = frozenset()

    def subst(self, sub: Subst) -> "SymbolicHeap":
        out = SymbolicHeap(
            tuple(a.subst(sub) for a in self.spatial), subst_pure(self.pure, sub)
        )
        if "apart" in self.__dict__:
            out.settle(frozenset(subst_expr(e, sub) for e in self.apart))
        return out

    def fv(self) -> frozenset[str]:
        out = self.pure_fv
        for a in self.spatial:
            out |= a.vars()
        return out

    @cached_property
    def pure_set(self) -> frozenset[PureAtom]:
        return frozenset(self.pure)

    @cached_property
    def pure_fv(self) -> frozenset[str]:
        return frozenset(
            t.name for p in self.pure for t in (p.lhs, p.rhs) if isinstance(t, Var)
        )

    @cached_property
    def roots(self) -> tuple[Expr, ...]:
        return tuple(a.root for a in self.spatial)

    @cached_property
    def skeleton(self) -> tuple[str, ...]:
        return tuple(
            sorted(a.pred if isinstance(a, PredOcc) else a.sort for a in self.spatial)
        )

    @cached_property
    def first_at(self) -> dict[Expr, SpatialAtom]:
        # read backwards, so the first atom at a root is written last
        return dict(zip(reversed(self.roots), reversed(self.spatial)))

    @cached_property
    def occ_at(self) -> dict[Expr, int]:
        return {a.root: i for i, a in reversed(list(self.pred_occs()))}

    def has_pure(self, atom: PureAtom) -> bool:
        return atom in self.pure_set

    def settle(self, apart: frozenset[Expr]) -> None:
        """Record the roots found non-null and pairwise apart."""
        self.__dict__["apart"] = apart

    def _hand_on(self, out: "SymbolicHeap", *names: str) -> None:
        known, new = self.__dict__, out.__dict__
        for name in names:
            if name in known:
                new[name] = known[name]

    def _derive(
        self, spatial: tuple[SpatialAtom, ...], extra: tuple[PureAtom, ...] = ()
    ) -> "SymbolicHeap":
        out = SymbolicHeap(spatial, self.pure + extra)
        self._hand_on(out, "apart")
        if spatial is self.spatial:
            self._hand_on(out, "guards")
        known, new = self.__dict__, out.__dict__
        if not extra:
            self._hand_on(out, "pure_set", "pure_fv")
            return out
        if "pure_set" in known:
            new["pure_set"] = known["pure_set"].union(extra)
        return out

    def add_pure(self, atoms: Iterable[PureAtom]) -> "SymbolicHeap":
        """Append atoms not already present (symmetric-aware), keeping order."""
        have = self.pure_set
        extra = tuple(a for a in atoms if a not in have)
        if not extra:
            return self
        return self._derive(self.spatial, extra)

    def drop_pure_at(self, idx: int) -> "SymbolicHeap":
        out = SymbolicHeap(self.spatial, self.pure[:idx] + self.pure[idx + 1 :])
        a = self.pure[idx]
        if isinstance(a, (PtrEq, ArithEq)) and a.lhs == a.rhs:
            self._hand_on(out, "apart")
        return out

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
        """The first atom rooted at `root`, if any."""
        return self.first_at.get(root)

    def spatial_text(self, show_unfold: bool = False) -> str:
        """The spatial part as written; `emp` when it is empty."""
        if not self.spatial:
            return "emp"
        return " * ".join(
            a.pretty(show_unfold) if isinstance(a, PredOcc) else str(a)
            for a in self.spatial
        )

    def pretty(self, show_unfold: bool = False) -> str:
        sp = self.spatial_text(show_unfold)
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
    """Session-local fresh variable generator; names are parser-rejected.

    A `tag` follows the marker in every name made. One that starts with a
    letter keeps the names apart from those made without a tag: `d#b1`
    against `d#1`."""

    def __init__(self, tag: str = "") -> None:
        self._n = 0
        self._tag = tag

    def make(self, base: str) -> str:
        self._n += 1
        stem = base.split(FRESH_MARK, 1)[0]
        return f"{stem}{FRESH_MARK}{self._tag}{self._n}"
