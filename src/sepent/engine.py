"""Cyclic entailment prover.

The search keeps a single proof tree and repeatedly inspects its leftmost
open leaf.  One selector, `_select`, decides what happens there, always in
this order:

1. a normalization step (=L, Subst, LBase, NeqNull, NeqStar, ExM);
2. an axiom (Inconsistency, Emp, Id);
3. a stuck check, reporting invalidity case 2b, 2c or 2d;
4. a reduction (=R, RBase, Hypothesis, RInd, Frame, Star, LInd);
5. a case split (ExM) on an undecided pair of a right occurrence;
6. otherwise stuck case 2a.

The order fixes the rule at every leaf, so the search never backtracks.
Step 1 and the Inconsistency axiom read the left side alone, so a left
side that passed both is marked so and is not looked at again (`_select`).
Before a selected rule is applied the engine tries to link the leaf back to
a structurally identical ancestor under a renaming of proof-fresh
variables.  `certify` re-checks closed trees, `counter` lifts countermodels.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Collection, Iterator, Literal, Optional, Sequence, Union

from . import pure as pure_solver
from .certify import _link_conditions
from .certify import check_cyclic_soundness  # perfbench/tracer.py wraps it here
from .counter import _leaf_witness  # perfbench/tracer.py wraps it here
from .defs import (
    Registry,
    base_of,
    check_wellformed,
    guard_of,
    input_problems,
    order_of,
    rec_instance,
    seg_of,
)
from .normalize import Edge, RuleChoice, case_split, in_place, spliced_fwd
from .normalize import normalize_step  # perfbench/tracer.py wraps it here
# perfbench/tracer.py wraps these two by name here; the engine calls neither
from .normalize import lbase_site, subst_site  # noqa: F401
from .oracle import HeapModel
from .syntax import (
    ArithEq,
    Entailment,
    Expr,
    FreshNames,
    PointsTo,
    PredOcc,
    PtrEq,
    PtrNeq,
    PureAtom,
    SpatialAtom,
    SymbolicHeap,
    Var,
    _match_identical,
    is_fresh_name,
    same_atom_mod_unfold,
    subst_atom,
)

DEFAULT_NODE_BUDGET = 100000


class UnsupportedFragment(ValueError):
    """Input outside the decidable fragment the prover handles."""


class ResourceLimit(RuntimeError):
    """Search exceeded its node budget."""


class SideConditionFailed(ValueError):
    """A rule was applied where its side conditions do not hold."""


class UnsoundProof(RuntimeError):
    """The search closed a pre-proof that the cycle re-check rejects."""


# ----------------------------------------------------------------- proof tree


Status = Literal["open", "valid", "invalid", "bud"]
# a renaming of proof-fresh names and the bud -> companion atom map it unifies
Unifier = tuple[dict[str, str], dict[int, int]]


@dataclass
class ProofNode:
    id: int
    ent: Entailment
    parent: Optional[int]
    edge: Optional[Edge]
    children: list[int] = field(default_factory=list)
    status: Status = "open"
    axiom: Optional[str] = None
    case: Optional[str] = None
    counter: Optional[HeapModel] = None
    companion: Optional[int] = None
    sigma: Optional[dict[str, str]] = None
    match: Optional[dict[int, int]] = None

    def is_leaf(self) -> bool:
        return not self.children


@dataclass
class ProofTree:
    nodes: dict[int, ProofNode]
    root: int = 0
    fresh: FreshNames = field(default_factory=FreshNames)
    # open_leaf's preorder frontier: ids not yet passed over, next on top
    _frontier: Optional[list[int]] = field(
        default=None, init=False, repr=False, compare=False
    )
    # link_back's progressing unifiers of a left spatial part onto itself,
    # by the part's identity; each entry holds the part, so its id stays taken
    _self_links: dict[int, tuple[tuple[SpatialAtom, ...], list[Unifier]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def new(cls, root_ent: Entailment) -> "ProofTree":
        return cls({0: ProofNode(0, root_ent, None, None)})

    def node(self, nid: int) -> ProofNode:
        return self.nodes[nid]

    def add(self, ent: Entailment, parent: int, edge: Edge) -> ProofNode:
        nid = len(self.nodes)
        node = ProofNode(nid, ent, parent, edge)
        self.nodes[nid] = node
        self.nodes[parent].children.append(nid)
        return node

    def edges(self) -> Iterator[tuple[int, str, int]]:
        for nid in sorted(self.nodes):
            n = self.nodes[nid]
            if n.parent is not None:
                assert n.edge is not None
                yield n.parent, n.edge.rule, nid

    def backlinks(self) -> list[tuple[int, int, dict[str, str]]]:
        return [
            (n.companion, n.id, dict(n.sigma or {}))
            for n in (self.nodes[i] for i in sorted(self.nodes))
            if n.status == "bud" and n.companion is not None
        ]

    def ancestors(self, nid: int) -> Iterator[ProofNode]:
        cur = self.nodes[nid]
        while cur.parent is not None:
            cur = self.nodes[cur.parent]
            yield cur

    def open_leaf(self) -> Optional[ProofNode]:
        """Leftmost deepest open leaf in child order.

        The walk resumes where the last call stopped, so a whole search
        costs amortised O(1) per call.  That returns the same leaf as a
        full preorder walk provided the tree grows only under open leaves
        and no node's status ever returns to "open", as with `apply_rule`
        and `prove`; a node passed over is never looked at again.
        """
        if self._frontier is None:
            self._frontier = [self.root]
        stack = self._frontier
        while stack:
            n = self.nodes[stack[-1]]
            if n.status == "open" and n.is_leaf():
                return n
            stack.pop()
            stack.extend(reversed(n.children))
        return None


@dataclass(frozen=True)
class Verdict:
    valid: bool
    tree: ProofTree
    node: Optional[int] = None
    case: Optional[str] = None
    counter: Optional[HeapModel] = None


# -------------------------------------------------------------------- helpers


def _reached(atom: SpatialAtom, reg: Registry) -> Collection[Expr]:
    """The terms the atom connects to, each once: the segment argument of
    an occurrence, or the pointer fields of a cell."""
    if isinstance(atom, PredOcc):
        return (seg_of(atom, reg),)
    decl = reg.sorts[atom.sort]
    return {f for (_, ft), f in zip(decl.fields, atom.fields) if ft != "int"}


def _occ_at(heap: SymbolicHeap, root: Expr) -> Optional[tuple[int, PredOcc]]:
    """The first occurrence rooted at `root` and its index, if any."""
    i = heap.occ_at.get(root)
    if i is None:
        return None
    occ = heap.spatial[i]
    assert isinstance(occ, PredOcc)
    return i, occ


# --------------------------------------------------------------------- axioms


def _inconsistent(lhs: SymbolicHeap, reg: Registry) -> bool:
    # Unsatisfiable left side: everything follows.  The pure part of the
    # one-step materialization carries the constraints the occurrences force
    # (nonemptiness plus instantiated ordering), so its inconsistency decides
    # left-side unsatisfiability on normalized leaves.  It extends the left
    # pure part, whose context is asked first so that the materialization's
    # context can extend it.
    return not pure_solver.satisfiable(lhs.pure) or not pure_solver.satisfiable(
        _base_pure(lhs, reg)
    )


def _axiom(ent: Entailment, reg: Registry) -> Optional[RuleChoice]:
    """Emp or Id. `_select` checks Inconsistency, once per left side."""
    lsp, rsp = ent.lhs.spatial, ent.rhs.spatial
    if not lsp and not rsp and not ent.rhs.pure:
        return RuleChoice("Emp", (), ())
    if len(lsp) != len(rsp):
        return None  # Id matches every atom on both sides
    if len(_match_identical(lsp, rsp)) == len(lsp) and pure_solver.entails_all(
        ent.lhs.pure, ent.rhs.pure
    ):
        return RuleChoice("Id", (), ())
    return None


def _base_pure(heap: SymbolicHeap, reg: Registry) -> tuple[PureAtom, ...]:
    """The pure part of `base_of(heap, reg)`, whose new names are apart
    from the heap's.  Computed once per left side: see `_select`."""
    return base_of(heap, reg).pure


# ----------------------------------------------------------- invalidity cases


def _stuck_case(ent: Entailment, reg: Registry) -> Optional[str]:
    """Shapes that make a satisfiable normalized leaf refutable.

    2b: some left atom owns a subheap at E but no right atom is rooted
        there, and either both sides reach E from elsewhere or the left
        does not reach it at all.
    2c: a right atom at E is forced nonempty by the left pure part, but
        the left has no atom at E to supply it.
    2d: cells at the same root disagree on sort or fields.
    """
    lhs, rhs = ent.lhs, ent.rhs
    # How many left atoms reach each term, and the terms some right atom
    # reaches; counted once, at the first left root with no right atom.
    lhs_reach: Optional[Counter[Expr]] = None
    rhs_reach: set[Expr] = set()
    for a in lhs.spatial:
        e = a.root
        if rhs.atom_at_root(e) is not None:
            continue
        if lhs_reach is None:
            lhs_reach = Counter(t for o in lhs.spatial for t in _reached(o, reg))
            rhs_reach = {t for o in rhs.spatial for t in _reached(o, reg)}
        others = lhs_reach[e]
        if others and e in _reached(a, reg):  # `a` itself, wherever it stands
            others -= sum(o is a for o in lhs.spatial)
        if (others and e in rhs_reach) or not others:
            return "2b"
    for b in rhs.spatial:
        g = guard_of(b, reg)
        if g is not None and not lhs.has_pure(g):
            continue
        if lhs.atom_at_root(b.root) is None:
            return "2c"
    for _, c2 in rhs.points_tos():
        a = lhs.atom_at_root(c2.root)
        if isinstance(a, PointsTo) and (
            a.sort != c2.sort or a.fields != c2.fields
        ):
            return "2d"
    return None


# ----------------------------------------------------------------- reductions


def _eq_r(ent: Entailment, reg: Registry, fresh: FreshNames) -> Optional[RuleChoice]:
    for i, a in enumerate(ent.rhs.pure):
        if isinstance(a, (PtrEq, ArithEq)) and a.lhs == a.rhs:
            return in_place("=R", ent, replace(ent, rhs=ent.rhs.drop_pure_at(i)))
    return None


def _rbase(ent: Entailment, reg: Registry, fresh: FreshNames) -> Optional[RuleChoice]:
    for j, occ in ent.rhs.pred_occs():
        if occ.root != seg_of(occ, reg):
            continue
        rhs = ent.rhs.replace_spatial(j, ())
        pair = order_of(occ, reg)
        if pair is not None:
            src, tgt = pair
            rhs = rhs.add_pure([ArithEq(tgt, src)])
        return in_place("RBase", ent, replace(ent, rhs=rhs))
    return None


def _hypothesis(
    ent: Entailment, reg: Registry, fresh: FreshNames
) -> Optional[RuleChoice]:
    drop = {
        i
        for i, a in enumerate(ent.rhs.pure)
        if pure_solver.entails(ent.lhs.pure, a)
    }
    if not drop:
        return None
    keep = tuple(a for i, a in enumerate(ent.rhs.pure) if i not in drop)
    prem = replace(ent, rhs=SymbolicHeap(ent.rhs.spatial, keep))
    return in_place("Hypothesis", ent, prem)


def _rind(ent: Entailment, reg: Registry, fresh: FreshNames) -> Optional[RuleChoice]:
    """Unfold a right occurrence whose root cell is on the left.  The head
    existentials are bound to that cell's actual fields, so the premise
    stays quantifier-free; a disagreeing field surfaces as a cell mismatch
    in the premise rather than blocking the rule."""
    for j, occ in ent.rhs.pred_occs():
        x = occ.root
        cell = ent.lhs.atom_at_root(x)
        if not isinstance(cell, PointsTo):
            continue
        if cell.sort != reg.preds[occ.pred].rec.head.sort:
            continue
        if not ent.lhs.has_pure(guard_of(occ, reg)):
            continue
        if any(isinstance(b, PointsTo) and b.root == x for b in ent.rhs.spatial):
            continue
        atoms, pure, sub = rec_instance(occ.with_unfold(0), reg, fresh)
        head = atoms[0]
        assert isinstance(head, PointsTo)
        smap: dict[str, Expr] = {}
        for fe, actual in zip(head.fields, cell.fields):
            if isinstance(fe, Var) and is_fresh_name(fe.name):
                smap[fe.name] = actual
        inst = tuple(
            a.subst(smap).with_unfold(0) if isinstance(a, PredOcc) else a.subst(smap)
            for a in atoms
        )
        rhs = ent.rhs.replace_spatial(j, inst).add_pure(
            subst_atom(p, smap) for p in pure
        )
        return in_place("RInd", ent, replace(ent, rhs=rhs))
    return None


def _unfold_choice(
    label: str, ent: Entailment, i: int, occ: PredOcc, reg: Registry, fresh: FreshNames
) -> RuleChoice:
    atoms, pure, _ = rec_instance(occ, reg, fresh)
    lhs = ent.lhs.replace_spatial(i, atoms).add_pure(pure)
    fwd = spliced_fwd(len(ent.lhs.spatial), i, len(atoms))
    edge = Edge(label, fwd, progressed=frozenset((i,)))
    return RuleChoice(label, (replace(ent, lhs=lhs),), (edge,))


def _frame(ent: Entailment, reg: Registry, fresh: FreshNames) -> Optional[RuleChoice]:
    """Left unfold triggered by a right cell rooted at a left occurrence."""
    for j, c2 in ent.rhs.points_tos():
        x = c2.root
        if sum(1 for _, b in ent.rhs.points_tos() if b.root == x) > 1:
            continue
        at = _occ_at(ent.lhs, x)
        if at is None:
            continue
        return _unfold_choice("Frame", ent, at[0], at[1], reg, fresh)
    return None


def _kept_fwd(n: int, kept: list[int]) -> tuple[Optional[int], ...]:
    """The index map of n left atoms into a premise that keeps the atoms
    at the ascending positions `kept`."""
    rank = {i: r for r, i in enumerate(kept)}
    return tuple(rank.get(i) for i in range(n))


def _star(ent: Entailment, reg: Registry, fresh: FreshNames) -> Optional[RuleChoice]:
    """Split off the pairs of structurally identical atoms.  The first
    premise proves the matched parts against each other; the second keeps
    everything else, including the whole pure context."""
    lhs, rhs = ent.lhs.spatial, ent.rhs.spatial
    m = _match_identical(lhs, rhs)
    if not m:
        return None
    if len(m) == len(lhs) == len(rhs) and not ent.rhs.pure:
        return None  # identity is an axiom, not a split
    taken = set(m.values())
    li = sorted(taken)
    left = [i for i in range(len(lhs)) if i not in taken]
    k1 = tuple(lhs[i] for i in li)
    k = tuple(lhs[i] for i in left)
    k2 = tuple(rhs[j] for j in sorted(m))
    kp = tuple(b for j, b in enumerate(rhs) if j not in m)
    pi_fv = ent.lhs.pure_fv
    fv_k1 = SymbolicHeap(k1).fv() | pi_fv
    fv_k = SymbolicHeap(k).fv() | pi_fv
    if not SymbolicHeap(k2).fv() <= fv_k1:
        return None
    if not SymbolicHeap(kp, ent.rhs.pure).fv() <= fv_k:
        return None
    p1 = Entailment(ent.lhs.with_spatial(k1), SymbolicHeap(k2))
    p2 = Entailment(ent.lhs.with_spatial(k), SymbolicHeap(kp, ent.rhs.pure))
    # a sub-heap of a normal left side is normal, under the same pure part
    ent.lhs._hand_on(p1.lhs, "normal_for")
    ent.lhs._hand_on(p2.lhs, "normal_for")
    e1 = Edge("Star", _kept_fwd(len(lhs), li), peeled=k)
    e2 = Edge("Star", _kept_fwd(len(lhs), left), peeled=k1)
    return RuleChoice("Star", (p1, p2), (e1, e2))


def _lind(ent: Entailment, reg: Registry, fresh: FreshNames) -> Optional[RuleChoice]:
    """Unfold the left occurrence standing at the root of a right
    occurrence.  Among several candidates the most-unfolded one is taken,
    keeping the search depth-first along the branch already being traced."""
    cands: list[tuple[int, PredOcc]] = []
    for j, occ in ent.rhs.pred_occs():
        at = _occ_at(ent.lhs, occ.root)
        if at is None:
            continue
        if not ent.lhs.has_pure(guard_of(occ, reg)):
            continue
        i, a = at
        rest = [b for t, b in enumerate(ent.rhs.spatial) if t != j]
        if any(same_atom_mod_unfold(a, b) for b in rest):
            continue
        cands.append((i, a))
    if not cands:
        return None
    i, a = max(cands, key=lambda t: t[1].unfold)
    return _unfold_choice("LInd", ent, i, a, reg, fresh)


def _rhs_exm(ent: Entailment, reg: Registry, fresh: FreshNames) -> Optional[RuleChoice]:
    """Case split on an undecided root/segment pair of a right occurrence;
    the equal branch lets the base case fire, the other one the unfolds."""
    for _, occ in ent.rhs.pred_occs():
        e1, e2 = occ.root, seg_of(occ, reg)
        if e1 == e2:
            continue
        if ent.lhs.has_pure(PtrNeq(e1, e2)):
            continue
        return case_split(ent, e1, e2)
    return None


_REDUCTIONS = (_eq_r, _rbase, _hypothesis, _rind, _frame, _star, _lind, _rhs_exm)


def _select(
    ent: Entailment, reg: Registry, fresh: FreshNames
) -> Union[RuleChoice, str]:
    """The rule the search applies at a leaf, or the leaf's stuck case:
    normalization, axioms, stuck cases 2b-2d, reductions ending with the
    right-side case split, and otherwise 2a.

    Normalization and Inconsistency read the left side alone. A left side
    that passes both records the registry as `normal_for` and skips both
    from then on. It keeps the record through the rules that keep it whole
    (=R, RBase, Hypothesis, RInd), and `_star` hands it to its premises;
    every other rule builds a new left side without it."""
    lhs = ent.lhs
    if lhs.__dict__.get("normal_for") is not reg:
        choice = normalize_step(ent, reg)
        if choice is not None:
            return choice
        if _inconsistent(lhs, reg):
            return RuleChoice("Inconsistency", (), ())
        lhs.__dict__["normal_for"] = reg
    choice = _axiom(ent, reg)
    if choice is not None:
        return choice
    case = _stuck_case(ent, reg)
    if case is not None:
        return case
    for fn in _REDUCTIONS:
        choice = fn(ent, reg, fresh)
        if choice is not None:
            return choice
    return "2a"


# ------------------------------------------------------------------ is_closed


def is_closed(
    tree: ProofTree, reg: Registry
) -> Optional[tuple[int, Union[RuleChoice, str]]]:
    """The search's next step: None once no open leaf remains, else the
    leftmost open leaf and what `_select` answers there, the rule to apply
    or the leaf's stuck case."""
    leaf = tree.open_leaf()
    if leaf is None:
        return None
    return leaf.id, _select(leaf.ent, reg, tree.fresh)


# ------------------------------------------------------------------ expansion


def _expand(tree: ProofTree, leaf_id: int, choice: RuleChoice) -> list[int]:
    node = tree.node(leaf_id)
    if not choice.premises:
        node.status = "valid"
        node.axiom = choice.label
        return []
    return [
        tree.add(prem, leaf_id, edge).id
        for prem, edge in zip(choice.premises, choice.edges)
    ]


def apply_rule(
    tree: ProofTree, leaf_id: int, rule: str, reg: Registry
) -> list[Entailment]:
    """Apply the named rule at an open leaf, growing the tree in place.

    The rule must be the one the search selects there; anything else,
    and any rule at a stuck leaf, fails its side conditions by definition
    of the strategy.
    """
    node = tree.node(leaf_id)
    if node.status != "open" or not node.is_leaf():
        raise SideConditionFailed(f"node {leaf_id} is not an open leaf")
    choice = _select(node.ent, reg, tree.fresh)
    if isinstance(choice, str):
        raise SideConditionFailed(f"node {leaf_id} is stuck (case {choice})")
    if choice.label != rule:
        raise SideConditionFailed(
            f"{rule} does not apply at node {leaf_id}; selection is {choice.label}"
        )
    _expand(tree, leaf_id, choice)
    return list(choice.premises)


# ----------------------------------------------------------------- back-links


def _unify_atom(
    a: SpatialAtom, b: SpatialAtom, sigma: dict[str, str], trail: list[str]
) -> bool:
    """Extend sigma in place so that a maps onto b; only proof-fresh
    variables of a may be renamed, everything else must match exactly.
    Each name bound is pushed on trail; on failure sigma and trail are
    restored before returning False."""
    if isinstance(a, PredOcc) != isinstance(b, PredOcc):
        return False
    if isinstance(a, PredOcc) and isinstance(b, PredOcc):
        if a.pred != b.pred:
            return False
        pairs = zip(a.args, b.args)
    else:
        assert isinstance(a, PointsTo) and isinstance(b, PointsTo)
        if a.sort != b.sort:
            return False
        pairs = zip((a.root, *a.fields), (b.root, *b.fields))
    mark = len(trail)
    for ea, eb in pairs:
        if isinstance(ea, Var) and is_fresh_name(ea.name):
            if not isinstance(eb, Var):
                break
            bound = sigma.get(ea.name)
            if bound is None:
                sigma[ea.name] = eb.name
                trail.append(ea.name)
            elif bound != eb.name:
                break
        elif ea != eb:
            break
    else:
        return True
    _undo(sigma, trail, mark)
    return False


def _undo(sigma: dict[str, str], trail: list[str], mark: int) -> None:
    while len(trail) > mark:
        del sigma[trail.pop()]


def _spatial_unifiers(
    bud: tuple[SpatialAtom, ...], comp: tuple[SpatialAtom, ...]
) -> Iterator[tuple[dict[str, str], dict[int, int]]]:
    """Every bijection of bud atoms onto comp atoms that one renaming of
    proof-fresh names unifies, as (renaming, bud index -> comp index), in
    lexicographic order of the comp indices.  A depth-first search with an
    explicit stack, so the bud's length does not bound the recursion.

    One renaming is extended in place and undone along a trail.  A bud
    atom whose root the renaming already fixes (an input name, or a
    mapped fresh name) only tries the comp atoms at that root; any other
    comp atom would fail to unify anyway."""
    n = len(bud)
    if n != len(comp):
        return
    by_root: dict[Expr, list[int]] = {}
    for j, b in enumerate(comp):
        by_root.setdefault(b.root, []).append(j)
    sigma: dict[str, str] = {}
    trail: list[str] = []

    def candidates(a: SpatialAtom) -> Sequence[int]:
        r = a.root
        if isinstance(r, Var) and is_fresh_name(r.name):
            if r.name not in sigma:
                return range(n)
            r = Var(sigma[r.name])
        return by_root.get(r, ())

    chosen: list[int] = []  # chosen[i]: the comp index bud[i] maps to
    # per chosen level: its candidates, the position after chosen[i]
    # among them, and the trail length before bud[i] was unified
    frames: list[tuple[Sequence[int], int, int]] = []
    used = [False] * n
    cands: Sequence[int] = candidates(bud[0]) if n else ()
    k = 0  # next position in cands to try for bud[len(chosen)]
    while True:
        i = len(chosen)
        found = False
        if i == n:
            yield dict(sigma), dict(enumerate(chosen))
        else:
            mark = len(trail)
            while k < len(cands) and not found:
                j = cands[k]
                k += 1
                found = not used[j] and _unify_atom(bud[i], comp[j], sigma, trail)
        if found:
            frames.append((cands, k, mark))
            chosen.append(j)
            used[j] = True
            if i + 1 < n:
                cands, k = candidates(bud[i + 1]), 0
            continue
        if not chosen:
            return
        used[chosen.pop()] = False
        cands, k, mark = frames.pop()
        _undo(sigma, trail, mark)


def _progressing(
    bud: tuple[SpatialAtom, ...], comp: tuple[SpatialAtom, ...]
) -> list[Unifier]:
    """The unifiers of bud onto comp that map some occurrence onto one
    unfolded strictly less often."""
    return [
        (sigma, match)
        for sigma, match in _spatial_unifiers(bud, comp)
        if any(
            isinstance(a, PredOcc) and isinstance(b, PredOcc) and a.unfold > b.unfold
            for a, b in ((bud[i], comp[j]) for i, j in match.items())
        )
    ]


def link_back(
    tree: ProofTree, leaf_id: int, reg: Registry
) -> Optional[tuple[int, dict[str, str], dict[int, int]]]:
    """Find the nearest strict ancestor the leaf folds onto: same shape up
    to a renaming of proof-fresh variables and discarded pure conjuncts,
    with at least one matched occurrence unfolded strictly more often.

    Progress depends only on the two spatial parts, so it is tested before
    the costlier pure and right-side conditions.  An ancestor whose
    skeleton differs from the leaf's has no unifier and is skipped.
    Ancestors reached by pure-only steps share their spatial tuple, and
    with it the list of progressing unifiers, which is then enumerated
    once for all of them.  The leaf shares its own tuple with such
    ancestors too, and its siblings and their pure-only descendants share
    it again: the unifiers of a tuple onto itself are enumerated once per
    proof and kept on the tree (`ProofTree._self_links`)."""
    ent = tree.node(leaf_id).ent
    bud = ent.lhs.spatial
    if not any(a.unfold > 0 for _, a in ent.lhs.pred_occs()):
        return None
    skeleton = ent.lhs.skeleton
    last: Optional[tuple[SpatialAtom, ...]] = None
    cands: list[Unifier] = []
    for anc in tree.ancestors(leaf_id):
        comp = anc.ent.lhs.spatial
        if comp is not last:
            last = comp
            if comp is bud:
                entry = tree._self_links.get(id(bud))
                if entry is None:
                    entry = tree._self_links[id(bud)] = (bud, _progressing(bud, bud))
                cands = entry[1]
            elif anc.ent.lhs.skeleton != skeleton:
                cands = []
                continue
            else:
                cands = _progressing(bud, comp)
        for sigma, match in cands:
            if _link_conditions(ent, anc.ent, sigma):
                # copies: a cached unifier is shared by every leaf that reads it
                return anc.id, dict(sigma), dict(match)
    return None


# ----------------------------------------------------------------- the prover


def _reset_unfolds(heap: SymbolicHeap) -> SymbolicHeap:
    spatial = tuple(
        a.with_unfold(0) if isinstance(a, PredOcc) else a for a in heap.spatial
    )
    return SymbolicHeap(spatial, heap.pure)


def _validate_input(ent: Entailment, reg: Registry) -> None:
    problems = check_wellformed(reg)
    if problems:
        raise UnsupportedFragment("; ".join(problems))
    marked = sorted(n for n in ent.fv() if is_fresh_name(n))
    if marked:
        raise UnsupportedFragment(
            f"reserved variable names in input: {', '.join(marked)}"
        )
    problems = input_problems(ent.lhs, ent.rhs, reg)
    if problems:
        raise UnsupportedFragment("; ".join(problems))


def prove(
    ent: Entailment, reg: Registry, node_budget: int = DEFAULT_NODE_BUDGET
) -> Verdict:
    """Decide the entailment by cyclic proof search.

    Returns Valid with a closed proof tree whose back-links pass the
    soundness re-check, or Invalid with the stuck node, its case tag, and a
    confirmed countermodel when the stuck shape yields one.
    """
    _validate_input(ent, reg)
    root = Entailment(_reset_unfolds(ent.lhs), _reset_unfolds(ent.rhs))
    tree = ProofTree.new(root)
    while (step := is_closed(tree, reg)) is not None:
        leaf_id, choice = step
        node = tree.node(leaf_id)
        if isinstance(choice, str):
            node.status = "invalid"
            node.case = choice
            if choice in ("2b", "2c", "2d"):
                node.counter = _leaf_witness(tree, leaf_id, reg)
            return Verdict(False, tree, node=leaf_id, case=choice, counter=node.counter)
        linked = link_back(tree, leaf_id, reg)
        if linked is not None:
            node.status = "bud"
            node.companion, node.sigma, node.match = linked
            continue
        _expand(tree, leaf_id, choice)
        if len(tree.nodes) > node_budget:
            raise ResourceLimit(
                f"proof search exceeded the {node_budget}-node budget"
            )
    report = check_cyclic_soundness(tree, reg)
    if report:
        raise UnsoundProof("; ".join(report))
    return Verdict(True, tree)
