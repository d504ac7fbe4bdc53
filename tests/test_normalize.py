"""Normal-form recognition and the rewrite pass that establishes it.

Branch sets and traces are frozen from hand-worked reductions; the
disjunction checks at the end confirm them against the model enumerator.
"""

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import disjunction_equivalent, entailments
from normal_form import is_nf, nf_failures, normalize
from sepent import normalize as normalize_module
from sepent import pure as pure_solver
from sepent.defs import guard_of, seg_of
from sepent.normalize import (
    apply_eq_l,
    apply_exm,
    apply_lbase,
    apply_neq_null,
    apply_neq_star,
    apply_subst,
    in_place,
    normalize_step,
    _known_roots,
)
from sepent.oracle import Bound
from sepent.syntax import (
    NULL,
    ArithEq,
    ArithLeq,
    Entailment,
    IntLit,
    PointsTo,
    PredOcc,
    PtrEq,
    PtrNeq,
    SymbolicHeap,
    Var,
)

x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")
F = Var("F")
mi, ma = Var("mi"), Var("ma")


def heap(spatial=(), pure=()):
    return SymbolicHeap(tuple(spatial), tuple(pure))


def ent(lspatial=(), lpure=(), rspatial=(), rpure=()):
    return Entailment(heap(lspatial, lpure), heap(rspatial, rpure))


def is_nf_entailment(e, reg):
    """An entailment is in NF exactly when its LHS is."""
    return is_nf(e.lhs, reg)


# ------------------------------------------------- one-atom reference rules


def reference_apply_neq_null(ent, reg):
    have = frozenset(ent.lhs.pure)
    for a in ent.lhs.spatial:
        if isinstance(a, PredOcc):
            g = guard_of(a, reg)
            if g is None or g not in have:
                continue  # nonemptiness not yet established
        need = PtrNeq(a.root, NULL)
        if need not in have:
            return in_place("NeqNull", ent, replace(ent, lhs=ent.lhs.add_pure([need])))
    return None


def reference_apply_neq_star(ent, reg):
    have = frozenset(ent.lhs.pure)
    atoms = ent.lhs.spatial
    present = [
        not isinstance(a, PredOcc) or guard_of(a, reg) in have for a in atoms
    ]
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            if not (present[i] and present[j]):
                continue
            need = PtrNeq(atoms[i].root, atoms[j].root)
            if need not in have:
                return in_place(
                    "NeqStar", ent, replace(ent, lhs=ent.lhs.add_pure([need]))
                )
    return None


def reference_appliers():
    """The normalizer's rule order with NeqNull and NeqStar adding one
    disequality per step, as `normalize._APPLIERS` can be patched to."""
    swap = {
        apply_neq_null: reference_apply_neq_null,
        apply_neq_star: reference_apply_neq_star,
    }
    return tuple(swap.get(f, f) for f in normalize_module._APPLIERS)


def unpack(choice):
    """A rule instance as (label, premises)."""
    return choice.label, choice.premises


def collapse_runs(labels):
    """The labels with each run of equal NeqNull or NeqStar labels kept once."""
    out = []
    for label in labels:
        if not (out and label == out[-1] and label in ("NeqNull", "NeqStar")):
            out.append(label)
    return tuple(out)


# ------------------------------------------------ full-scan reference rules
#
# NeqNull, NeqStar and ExM as they were before heaps carried their settled
# roots: every scan visits every root, or every pair of roots.


def reference_full_apply_neq_null(ent, reg):
    have = ent.lhs.pure_set
    needs: dict[PtrNeq, None] = {}  # an insertion-ordered set
    for r in _known_roots(ent.lhs, reg):
        need = PtrNeq(r, NULL)
        if need not in have:
            needs[need] = None
    if not needs:
        return None
    return in_place("NeqNull", ent, replace(ent, lhs=ent.lhs.add_pure(needs)))


def reference_full_apply_neq_star(ent, reg):
    have = ent.lhs.pure_set
    roots = _known_roots(ent.lhs, reg)
    needs: dict[PtrNeq, None] = {}
    for i, r in enumerate(roots):
        for s in roots[i + 1 :]:
            need = PtrNeq(r, s)
            if need not in have:
                needs[need] = None
    if not needs:
        return None
    return in_place("NeqStar", ent, replace(ent, lhs=ent.lhs.add_pure(needs)))


def _exm_pairs(heap, reg):
    pairs = []
    for a in heap.spatial:
        if isinstance(a, PredOcc):
            pairs.append((a.root, seg_of(a, reg)))
    roots = [a.root for a in heap.spatial]
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            pairs.append((roots[i], roots[j]))
    return pairs


def reference_full_apply_exm(ent, reg):
    pi = ent.lhs.pure
    have = ent.lhs.pure_set
    for e1, e2 in _exm_pairs(ent.lhs, reg):
        if e1 == e2 or PtrNeq(e1, e2) in have:
            continue
        if pure_solver.status_of_pair(pi, e1, e2) == "unknown":
            eq = replace(ent, lhs=ent.lhs.add_pure([PtrEq(e1, e2)]))
            ne = replace(ent, lhs=ent.lhs.add_pure([PtrNeq(e1, e2)]))
            return in_place("ExM", ent, eq, ne)
    return None


def full_scan_appliers():
    swap = {
        apply_neq_null: reference_full_apply_neq_null,
        apply_neq_star: reference_full_apply_neq_star,
        apply_exm: reference_full_apply_exm,
    }
    return tuple(swap.get(f, f) for f in normalize_module._APPLIERS)


def normalize_fresh(ent, reg):
    """normalize() with every left side rebuilt before each step, so no
    step starts from roots an earlier one settled."""
    out = []
    stack = [(ent, ())]
    while stack:
        e, trace = stack.pop()
        e = replace(e, lhs=SymbolicHeap(e.lhs.spatial, e.lhs.pure))
        step = normalize_step(e, reg)
        if step is None:
            out.append((e, trace))
            continue
        for p in reversed(step.premises):
            stack.append((p, trace + (step.label,)))
    return out


# ------------------------------------------------------------- normal form


class TestNormalForm:
    def test_single_cell_with_null_guard(self, registry):
        h = heap((PointsTo(x, "c1", (y,)),), (PtrNeq(x, NULL),))
        assert is_nf(h, registry)

    def test_cell_and_occurrence_fully_guarded(self, registry):
        h = heap(
            (PointsTo(x, "c1", (y,)), PredOcc("ll", (z, F))),
            (PtrNeq(x, NULL), PtrNeq(z, NULL), PtrNeq(z, F), PtrNeq(x, z)),
        )
        assert nf_failures(h, registry) == ()

    def test_missing_guard_fails_clause_1(self, registry):
        h = heap((PredOcc("ll", (x, F)),), (PtrNeq(x, NULL),))
        assert nf_failures(h, registry) == (1,)

    def test_missing_null_diseq_fails_clause_2(self, registry):
        h = heap((PointsTo(x, "c1", (y,)),))
        assert nf_failures(h, registry) == (2,)

    def test_unseparated_roots_fail_clause_3(self, registry):
        h = heap(
            (PointsTo(x, "c1", (y,)), PointsTo(z, "c1", (w,))),
            (PtrNeq(x, NULL), PtrNeq(z, NULL)),
        )
        assert nf_failures(h, registry) == (3,)

    def test_equality_fails_clause_4(self, registry):
        h = heap((PointsTo(x, "c1", (y,)),), (PtrNeq(x, NULL), PtrEq(x, w)))
        assert nf_failures(h, registry) == (4,)

    def test_arith_equality_with_variable_fails_clause_4(self, registry):
        assert nf_failures(heap((), (ArithEq(mi, IntLit(3)),)), registry) == (4,)
        # ground equations carry no eliminable variable and are left to the
        # satisfiability clause
        assert nf_failures(heap((), (ArithEq(IntLit(3), IntLit(3)),)), registry) == ()

    def test_self_disequality_fails_clause_5(self, registry):
        assert nf_failures(heap((), (PtrNeq(x, x),)), registry) == (5, 6)

    def test_unsat_arith_fails_clause_6(self, registry):
        h = heap((), (ArithLeq(IntLit(1), IntLit(0)),))
        assert nf_failures(h, registry) == (6,)

    def test_entailment_nf_ignores_rhs(self, registry):
        e = ent(rspatial=(PredOcc("ll", (x, F)),))
        assert is_nf_entailment(e, registry)

    def test_symmetric_guards_count(self, registry):
        h = heap((PredOcc("ll", (x, F)),), (PtrNeq(F, x), PtrNeq(NULL, x)))
        assert is_nf(h, registry)


# ------------------------------------------------------------ rule appliers


class TestAppliers:
    def test_eq_l_drops_reflexive_pointer_equality(self, registry):
        label, (out,) = unpack(apply_eq_l(ent(lpure=(PtrEq(x, x),)), registry))
        assert label == "=L"
        assert out.lhs.pure == ()

    def test_eq_l_drops_reflexive_arith_equality(self, registry):
        step = apply_eq_l(ent(lpure=(ArithEq(mi, mi),)), registry)
        assert step is not None and step.premises[0].lhs.pure == ()

    def test_eq_l_skips_real_equations(self, registry):
        assert apply_eq_l(ent(lpure=(PtrEq(x, y),)), registry) is None

    def test_eq_l_looks_past_real_equations(self, registry):
        pure = (PtrEq(x, y), PtrNeq(x, z), ArithEq(mi, mi), PtrEq(z, z))
        label, (prem,) = unpack(apply_eq_l(ent(lpure=pure), registry))
        assert prem.lhs.pure == (PtrEq(x, y), PtrNeq(x, z), PtrEq(z, z))

    def test_subst_null_side_wins(self, registry):
        e = ent((PointsTo(x, "c1", (y,)),), (PtrEq(x, NULL),))
        _, (out,) = unpack(apply_subst(e, registry))
        assert out.lhs.spatial == (PointsTo(NULL, "c1", (y,)),)
        assert out.lhs.pure == ()

    def test_subst_fresh_name_loses(self, registry):
        X = Var("X#1")
        e = ent((PointsTo(X, "c1", (y,)),), (PtrEq(X, x),))
        _, (out,) = unpack(apply_subst(e, registry))
        assert out.lhs.spatial == (PointsTo(x, "c1", (y,)),)

    def test_subst_lexicographically_larger_name_goes(self, registry):
        e = ent((PointsTo(z, "c1", (y,)),), (PtrEq(z, x),))
        _, (out,) = unpack(apply_subst(e, registry))
        assert out.lhs.spatial == (PointsTo(x, "c1", (y,)),)

    def test_subst_rewrites_both_sides(self, registry):
        e = Entailment(
            heap((PredOcc("ll", (x, y)),), (PtrEq(y, NULL),)),
            heap((PredOcc("ll", (x, y)),)),
        )
        _, (out,) = unpack(apply_subst(e, registry))
        assert out.lhs.spatial == (PredOcc("ll", (x, NULL)),)
        assert out.rhs.spatial == (PredOcc("ll", (x, NULL)),)

    def test_subst_ground_arith_equation_is_kept_for_clause_6(self, registry):
        # 3 = 4 has no variable to eliminate; the branch stays unsatisfiable
        e = ent(lpure=(ArithEq(IntLit(3), IntLit(4)),))
        assert apply_subst(e, registry) is None

    def test_lbase_drops_empty_segment(self, registry):
        e = ent((PredOcc("ll", (x, x)),), ())
        label, (out,) = unpack(apply_lbase(e, registry))
        assert label == "LBase"
        assert out.lhs.spatial == ()

    def test_lbase_identifies_order_pair(self, registry):
        e = ent((PredOcc("lls", (x, x, mi, ma)),), ())
        _, (out,) = unpack(apply_lbase(e, registry))
        assert out.lhs.spatial == ()
        # mi loses to ma by name orientation, matching the target-for-source
        # substitution here
        assert out.lhs.pure == ()
        assert out.rhs == ent().rhs

    def test_lbase_order_pair_substitutes_everywhere(self, registry):
        e = ent(
            (PredOcc("lls", (x, x, mi, ma)),),
            (ArithLeq(IntLit(0), mi),),
            rpure=(ArithLeq(mi, IntLit(5)),),
        )
        _, (out,) = unpack(apply_lbase(e, registry))
        assert out.lhs.pure == (ArithLeq(IntLit(0), ma),)
        assert out.rhs.pure == (ArithLeq(ma, IntLit(5)),)

    def test_lbase_needs_syntactic_root_seg_match(self, registry):
        e = ent((PredOcc("ll", (x, y)),), (PtrEq(x, y),))
        assert apply_lbase(e, registry) is None

    def test_neq_null_covers_cells_unconditionally(self, registry):
        e = ent((PointsTo(x, "c1", (y,)),), ())
        label, (out,) = unpack(apply_neq_null(e, registry))
        assert label == "NeqNull"
        assert out.lhs.pure == (PtrNeq(x, NULL),)

    def test_neq_null_requires_guard_on_occurrences(self, registry):
        assert apply_neq_null(ent((PredOcc("ll", (x, F)),), ()), registry) is None
        e = ent((PredOcc("ll", (x, F)),), (PtrNeq(x, F),))
        _, (out,) = unpack(apply_neq_null(e, registry))
        assert PtrNeq(x, NULL) in out.lhs.pure

    def test_neq_star_needs_both_guards(self, registry):
        cells = (PointsTo(x, "c1", (y,)), PredOcc("ll", (z, F)))
        e = ent(cells, (PtrNeq(x, NULL), PtrNeq(z, NULL)))
        assert apply_neq_star(e, registry) is None
        e = ent(cells, (PtrNeq(x, NULL), PtrNeq(z, NULL), PtrNeq(z, F)))
        _, (out,) = unpack(apply_neq_star(e, registry))
        assert PtrNeq(x, z) in out.lhs.pure

    def test_neq_star_adds_every_missing_pair_in_one_step(self, registry):
        cells = tuple(PointsTo(v, "c1", (NULL,)) for v in (x, y, z))
        nonnull = (PtrNeq(x, NULL), PtrNeq(y, NULL), PtrNeq(z, NULL))
        label, (out,) = unpack(apply_neq_star(ent(cells, nonnull), registry))
        assert label == "NeqStar"
        assert out.lhs.pure == nonnull + (
            PtrNeq(x, y),
            PtrNeq(x, z),
            PtrNeq(y, z),
        )
        assert normalize(ent(cells), registry) == [
            (out, ("NeqNull", "NeqStar"))
        ]

    def test_exm_splits_root_against_segment(self, registry):
        e = ent((PredOcc("ll", (x, F)),), ())
        label, (eq, neq) = unpack(apply_exm(e, registry))
        assert label == "ExM"
        assert PtrEq(x, F) in eq.lhs.pure
        assert PtrNeq(x, F) in neq.lhs.pure

    def test_exm_skips_decided_pairs(self, registry):
        e = ent((PredOcc("ll", (x, F)),), (PtrNeq(x, F),))
        assert apply_exm(e, registry) is None
        e = ent((PredOcc("ll", (x, NULL)),), (PtrNeq(x, NULL),))
        assert apply_exm(e, registry) is None

    def test_exm_does_not_split_an_arithmetically_unsatisfiable_left_side(
        self, registry
    ):
        # the pure solver finds 1<=0 infeasible, so every pair counts as
        # decided and Inconsistency closes the leaf instead
        e = ent((PredOcc("ll", (x, F)),), (ArithLeq(IntLit(1), IntLit(0)),))
        assert apply_exm(e, registry) is None
        e = ent((PredOcc("ll", (x, F)),), (ArithLeq(IntLit(0), IntLit(1)),))
        assert unpack(apply_exm(e, registry))[0] == "ExM"

    def test_rule_priority_order(self, registry):
        # a reflexive equality is consumed before any substitution fires
        e = ent((PredOcc("ll", (x, x)),), (PtrEq(y, y), PtrEq(y, NULL)))
        label, _ = unpack(normalize_step(e, registry))
        assert label == "=L"


# --------------------------------------------------------------- normalize


class TestNormalize:
    def test_reflexive_equality_single_branch(self, registry):
        out = normalize(ent(lpure=(PtrEq(x, x),)), registry)
        assert len(out) == 1
        branch, trace = out[0]
        assert trace == ("=L",)
        assert branch.lhs == heap()

    def test_bare_occurrence_splits_into_two_branches(self, registry):
        out = normalize(ent((PredOcc("ll", (x, F)),), ()), registry)
        assert [(str(b.lhs), t) for b, t in out] == [
            ("emp", ("ExM", "Subst", "LBase")),
            ("ll(x, F) /\\ x!=F /\\ x!=null", ("ExM", "NeqNull")),
        ]

    def test_sorted_segment_tail_branch(self, registry):
        # the empty-tail branch of a sorted list entailment: substituting the
        # tail away leaves a single cell holding the running maximum
        m1, X = Var("m1#1"), Var("X#1")
        lhs = heap(
            (PointsTo(x, "c4", (X, m1)), PredOcc("lls", (X, NULL, m1, ma), unfold=1)),
            (PtrNeq(x, NULL), ArithLeq(mi, m1), PtrEq(X, NULL)),
        )
        e = Entailment(lhs, heap((PredOcc("llb", (x, NULL, mi)),)))
        out = normalize(e, registry)
        assert len(out) == 1
        branch, trace = out[0]
        assert trace == ("Subst", "LBase")
        assert str(branch.lhs) == "x->c4(null, ma) /\\ x!=null /\\ mi<=ma"
        assert str(branch.rhs) == "llb(x, null, mi)"

    def test_nf_input_is_fixpoint(self, registry):
        e = ent(
            (PointsTo(x, "c1", (y,)), PredOcc("ll", (z, F))),
            (PtrNeq(x, NULL), PtrNeq(z, NULL), PtrNeq(z, F), PtrNeq(x, z)),
        )
        assert normalize(e, registry) == [(e, ())]

    def test_unsat_branches_are_kept(self, registry):
        e = ent(
            (PointsTo(x, "c1", (y,)),),
            (PtrNeq(x, NULL), ArithLeq(IntLit(1), IntLit(0))),
        )
        out = normalize(e, registry)
        assert len(out) == 1
        branch, trace = out[0]
        assert trace == ()
        assert nf_failures(branch.lhs, registry) == (6,)

    def test_contradictory_pointer_branch_is_kept(self, registry):
        # x=null together with the cell at x is closed downstream, not dropped
        e = ent((PointsTo(x, "c1", (y,)),), (PtrEq(x, NULL),))
        out = normalize(e, registry)
        assert [(str(b.lhs), t) for b, t in out] == [
            ("null->c1(y) /\\ null!=null", ("Subst", "NeqNull")),
        ]

    def test_every_branch_is_nf_or_unsat(self, registry):
        e = ent(
            (PredOcc("lls", (x, y, mi, ma)), PredOcc("ll", (z, y))),
            (ArithLeq(mi, ma),),
        )
        out = normalize(e, registry)
        assert len(out) > 2
        for branch, _ in out:
            fails = nf_failures(branch.lhs, registry)
            assert fails == () or fails == (6,) or 6 in fails

    def test_exm_applications_bounded_by_variable_pairs(self, registry):
        e = ent(
            (PredOcc("ll", (x, y)), PredOcc("ll", (z, y))),
            (),
        )
        out = normalize(e, registry)
        nvars = len(e.lhs.fv()) + 1  # together with null
        for _, trace in out:
            assert sum(1 for r in trace if r == "ExM") <= nvars * nvars

    def test_determinism(self, registry):
        e = ent(
            (PredOcc("lls", (x, y, mi, ma)), PointsTo(y, "c4", (NULL, ma))),
            (),
        )
        assert normalize(e, registry) == normalize(e, registry)


# ------------------------------------------------- semantic branch coverage


BOUND = Bound(max_unfold=3, max_locs=5)


@pytest.mark.parametrize(
    "spatial, pure",
    [
        ((PredOcc("ll", (x, F)),), ()),
        ((PredOcc("ll", (x, F)),), (PtrEq(x, F),)),
        ((PredOcc("lls", (x, NULL, mi, ma)),), ()),
        ((PointsTo(x, "c1", (y,)), PredOcc("ll", (y, z))), ()),
        ((PredOcc("lla", (x, y, mi)),), (PtrNeq(x, y),)),
    ],
    ids=["bare-ll", "collapsed-ll", "sorted-to-null", "cell-then-ll", "lla-guarded"],
)
def test_branch_disjunction_matches_input(registry, spatial, pure):
    e = ent(spatial, pure)
    branches = [b.lhs for b, _ in normalize(e, registry)]
    assert disjunction_equivalent(e.lhs, branches, registry, BOUND)


# ----------------------------------------------------------- random traces


_names = st.sampled_from(["x", "y", "z"])


@st.composite
def _small_lhs(draw):
    n = draw(st.integers(0, 4))
    spatial = []
    for _ in range(n):
        root, seg = draw(_names), draw(st.sampled_from(["y", "z", "F"]))
        if draw(st.booleans()):
            spatial.append(PredOcc("ll", (Var(root), Var(seg))))
        else:
            spatial.append(PointsTo(Var(root), "c1", (Var(seg),)))
    pure = []
    if draw(st.booleans()):
        pure.append(PtrEq(Var(draw(_names)), Var(draw(_names))))
    if draw(st.booleans()):
        pure.append(PtrNeq(Var(draw(_names)), NULL))
    return heap(spatial, pure)


@given(_small_lhs())
@settings(max_examples=60, deadline=None)
def test_normalize_total_and_labelled(lhs):
    reg = __import__("conftest").make_registry()
    out = normalize(Entailment(lhs, heap()), reg)
    assert out
    allowed = {"=L", "Subst", "LBase", "NeqNull", "NeqStar", "ExM"}
    for branch, trace in out:
        assert set(trace) <= allowed
        fails = nf_failures(branch.lhs, reg)
        assert fails == () or 6 in fails


@given(_small_lhs())
@settings(max_examples=100, deadline=None)
def test_batched_disequalities_contract_the_one_atom_steps(lhs):
    # Where two atoms share a root, one pass can make an atom present
    # mid-run, so the order of the added atoms may differ; such heaps are
    # unsatisfiable, and only the pure sets are compared.
    reg = __import__("conftest").make_registry()
    e = Entailment(lhs, heap())
    got = normalize(e, reg)
    with mock.patch.object(normalize_module, "_APPLIERS", reference_appliers()):
        want = normalize(e, reg)
    assert len(got) == len(want)
    for (g, gtrace), (r, rtrace) in zip(got, want):
        assert g.lhs.spatial == r.lhs.spatial
        assert frozenset(g.lhs.pure) == frozenset(r.lhs.pure)
        assert g.rhs == r.rhs
        assert collapse_runs(gtrace) == collapse_runs(rtrace)


@given(entailments(lhs_atoms=4))
@settings(max_examples=150, deadline=None)
def test_settled_roots_change_no_step(e):
    """Carrying settled roots and the other derived facts from heap to
    heap, through Subst, LBase and =L too, gives the labels and premises
    that fresh heaps and the full scans give (test_engine checks Star)."""
    reg = __import__("conftest").make_registry()
    got = normalize(e, reg)
    assert got == normalize_fresh(e, reg)
    with mock.patch.object(normalize_module, "_APPLIERS", full_scan_appliers()):
        assert got == normalize(e, reg)


def _cell(root):
    return PointsTo(root, "c1", (NULL,))


def test_new_root_is_paired_with_the_settled_ones_only(registry):
    # One cell joins a heap whose roots are settled: NeqStar visits the
    # five pairs of the new root and no other.
    cells = [_cell(Var(f"r{i}")) for i in range(4)]
    e = ent(cells + [PredOcc("ll", (y, z))], [PtrNeq(y, z)])
    settled = normalize(e, registry)[0][0].lhs
    assert settled.apart == {c.root for c in cells} | {y}
    grown = replace(e, lhs=settled.replace_spatial(0, [cells[0], _cell(w)]))
    assert grown.lhs.apart == settled.apart
    visited = []
    real = normalize_module._pairs

    def spy(*args):
        for pair in real(*args):
            visited.append(pair)
            yield pair

    with mock.patch.object(normalize_module, "_pairs", spy):
        prem = apply_neq_null(grown, registry).premises[0]
        assert prem.lhs.apart == settled.apart
        label, (prem,) = unpack(apply_neq_star(prem, registry))
    assert label == "NeqStar"
    assert len(visited) == 5 and all(w in pair for pair in visited)
    assert prem.lhs.apart == settled.apart | {w}


def test_settled_roots_are_the_current_roots(registry):
    # A root that left the heap leaves the settled set, so it is paired
    # with every root again when it comes back.
    e = ent([_cell(x), _cell(y)], [PtrNeq(x, y), PtrNeq(y, z)])
    assert apply_exm(e, registry) is None
    moved = replace(e, lhs=e.lhs.replace_spatial(0, [_cell(z)]))
    assert apply_exm(moved, registry) is None
    back = replace(moved, lhs=moved.lhs.replace_spatial(1, [_cell(y), _cell(x)]))
    label, (eq, ne) = unpack(apply_exm(back, registry))
    assert eq.lhs.pure[-1] == PtrEq(z, x) and ne.lhs.pure[-1] == PtrNeq(z, x)
    full = ent([_cell(x), _cell(y)], [PtrNeq(x, NULL), PtrNeq(y, NULL)])
    label, (prem,) = unpack(apply_neq_star(full, registry))
    assert prem.lhs.apart == {x, y}
    moved = replace(prem, lhs=prem.lhs.replace_spatial(0, [_cell(z)]))
    moved = apply_neq_null(moved, registry).premises[0]
    label, (prem,) = unpack(apply_neq_star(moved, registry))
    assert prem.lhs.apart == {y, z}



def test_root_listed_twice_is_unsettled(registry):
    # A second atom at a settled root pairs the root with itself, and
    # NeqStar adds the disequality that makes the left side unsatisfiable.
    e = ent([_cell(x), _cell(y)], [PtrNeq(x, NULL), PtrNeq(y, NULL)])
    settled = apply_neq_star(e, registry).premises[0]
    assert settled.lhs.apart == {x, y}
    twice = replace(settled, lhs=settled.lhs.replace_spatial(1, [_cell(y), _cell(x)]))
    label, (prem,) = unpack(apply_neq_star(twice, registry))
    assert prem.lhs.pure[-1] == PtrNeq(x, x)


def test_neq_null_visits_unsettled_roots_only(registry):
    # A settled root is not looked at again; here the record is forged,
    # so the missing x!=null shows that x was skipped.
    e = ent([_cell(x), _cell(y)])
    e.lhs.settle(frozenset({x}))
    label, (prem,) = unpack(apply_neq_null(e, registry))
    assert prem.lhs.pure == (PtrNeq(y, NULL),)
    assert prem.lhs.apart == {x}
    assert apply_neq_null(prem, registry) is None
