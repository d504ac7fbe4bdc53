"""Facts a heap hands on to the heaps built from it.

Every fact a proof node carries, whether computed on it or handed on from
its parent, must equal what a fresh heap with the same two parts computes;
the settled roots must still be settled; and a left side that carries the
engine's `normal_for` record must have no normalization step left and a
satisfiable materialization.  Every normalization edge must be the one the
engine built when it searched the Subst and LBase sites a second time.
Checked at every node of the suite proofs, of the chain family and of
generated entailments.
"""

from dataclasses import replace
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings

from conftest import entailments, make_registry, parse_query
from normal_form import normalize
from sepent import engine
from sepent import normalize as normalize_module
from sepent import pure
from sepent.defs import Role, base_of, guard_of, guards
from sepent.engine import (
    Edge,
    ResourceLimit,
    RuleChoice,
    UnsupportedFragment,
    _base_pure,
    _select,
    _star,
    prove,
)
from sepent.normalize import (
    _known_roots,
    lbase_site,
    normalize_step,
    subst_site,
)
from sepent.syntax import (
    NULL,
    Entailment,
    FreshNames,
    PointsTo,
    PredOcc,
    PtrEq,
    PtrNeq,
    SymbolicHeap,
    Var,
)
from suite_cases import SUITE, chain_sequent


def fresh_facts(heap, reg):
    """Each derived fact computed from scratch on the two parts alone."""
    return {
        "pure_set": frozenset(heap.pure),
        "pure_fv": frozenset(
            t.name for a in heap.pure for t in (a.lhs, a.rhs) if isinstance(t, Var)
        ),
        "roots": tuple(a.root for a in heap.spatial),
        "skeleton": tuple(
            sorted(a.pred if isinstance(a, PredOcc) else a.sort for a in heap.spatial)
        ),
        "guards": (reg, tuple(guard_of(a, reg) for a in heap.spatial)),
        "first_at": {
            r: next(a for a in heap.spatial if a.root == r)
            for r in (a.root for a in heap.spatial)
        },
        "occ_at": {
            r: next(
                i for i, a in enumerate(heap.spatial)
                if isinstance(a, PredOcc) and a.root == r
            )
            for r in (a.root for a in heap.spatial if isinstance(a, PredOcc))
        },
    }


def reference_known_roots(heap, reg):
    have = frozenset(heap.pure)
    return [
        a.root
        for a in heap.spatial
        if not isinstance(a, PredOcc) or guard_of(a, reg) in have
    ]


def assert_settled(heap):
    """Every `apart` root has its `!= null` atom, and every two `apart`
    roots have their `!=` atom."""
    have = frozenset(heap.pure)
    for r in heap.apart:
        assert PtrNeq(r, NULL) in have, r
    for r, s in combinations(heap.apart, 2):
        assert PtrNeq(r, s) in have, (r, s)


def assert_facts_fresh(heap, reg):
    """What `heap` carries equals a fresh computation; read before any
    fact is computed here, so a carried value is what gets compared."""
    carried = dict(heap.__dict__)
    fresh = fresh_facts(heap, reg)
    for name, value in carried.items():
        if name in fresh:
            assert value == fresh[name], name
    assert _known_roots(heap, reg) == reference_known_roots(heap, reg)
    assert heap.pure_fv == fresh["pure_fv"]
    assert_settled(heap)


def assert_normal(ent, reg):
    """A left side recorded normal for `reg` is so on a bare copy: no
    normalization step, and a satisfiable materialization."""
    if ent.lhs.__dict__.get("normal_for") is not reg:
        return
    bare = SymbolicHeap(ent.lhs.spatial, ent.lhs.pure)
    assert normalize_step(replace(ent, lhs=bare), reg) is None
    assert pure.satisfiable(_base_pure(bare, reg))


def assert_tree_facts(tree, reg):
    """Returns the rules on the edges into checked nodes."""
    seen = set()
    for n in tree.nodes.values():
        assert_facts_fresh(n.ent.lhs, reg)
        assert_facts_fresh(n.ent.rhs, reg)
        assert_normal(n.ent, reg)
        if n.edge is not None:
            seen.add(n.edge.rule)
    return seen


def reference_norm_choice(ent, reg):
    """The engine's `_norm_choice` from before the normalization appliers
    recorded their own edges, verbatim but for reading the label and the
    premises off the record `normalize_step` now returns."""
    step = normalize_step(ent, reg)
    if step is None:
        return None
    label, premises = step.label, step.premises
    n = len(ent.lhs.spatial)
    ident = tuple(range(n))
    if label == "Subst":
        site = subst_site(ent)
        assert site is not None
        edges = (Edge(label, ident, sub=(site[1], site[2])),)
    elif label == "LBase":
        lsite = lbase_site(ent, reg)
        assert lsite is not None
        i, _, oriented = lsite
        fwd = tuple(
            j if j < i else (None if j == i else j - 1) for j in range(n)
        )
        edges = (Edge(label, fwd, sub=oriented),)
    else:
        edges = tuple(Edge(label, ident) for _ in premises)
    return RuleChoice(label, tuple(premises), edges)


def assert_norm_edges(tree, reg):
    """Every normalization step of the tree has the premises and edges
    the reference builds; returns the rules compared."""
    seen = set()
    for n in tree.nodes.values():
        if not n.children:
            continue
        want = reference_norm_choice(n.ent, reg)
        if want is None:
            continue  # a reduction, the right side's ExM among them
        kids = [tree.node(c) for c in n.children]
        assert tuple(k.edge for k in kids) == want.edges
        assert tuple(k.ent for k in kids) == want.premises
        seen.add(want.label)
    return seen


@pytest.fixture(scope="module")
def reg():
    return make_registry()


SEQUENTS = [s for _, s, _ in SUITE] + [chain_sequent(n) for n in range(1, 17)]


def test_suite_and_chain_nodes_carry_fresh_facts(reg):
    rules, norm = set(), set()
    for sequent in SEQUENTS:
        tree = prove(parse_query(sequent), reg).tree
        rules |= assert_tree_facts(tree, reg)
        norm |= assert_norm_edges(tree, reg)
    # the rules that rebuild a left side; =L is left to the next test
    assert {"Subst", "LBase", "Star"} <= rules
    assert {"Subst", "LBase", "NeqNull", "NeqStar", "ExM"} <= norm


@given(entailments())
@settings(max_examples=150, deadline=None)
def test_generated_nodes_carry_fresh_facts(e):
    reg = make_registry()
    try:
        tree = prove(e, reg, node_budget=3000).tree
    except (UnsupportedFragment, ResourceLimit):
        return
    assert_tree_facts(tree, reg)
    assert_norm_edges(tree, reg)


@given(entailments(lhs_atoms=4))
@settings(max_examples=150, deadline=None)
def test_normalization_premises_carry_fresh_facts(e):
    # no suite proof needs =L; the generated ones reach it here
    reg = make_registry()
    for out, _ in normalize(e, reg):
        assert_facts_fresh(out.lhs, reg)


x, y, z = Var("x"), Var("y"), Var("z")


def test_subst_maps_settled_roots_through_the_binding(registry):
    # z=y orients to z -> y: the cell at z moves to y, and so do the
    # settled roots, so NeqStar and ExM visit no pair afterwards
    cells = (PointsTo(x, "c1", (NULL,)), PointsTo(z, "c1", (NULL,)))
    e = Entailment(SymbolicHeap(cells, (PtrNeq(x, NULL),)), SymbolicHeap())
    ((settled, _),) = normalize(e, registry)
    assert settled.lhs.apart == {x, z}
    eq = replace(settled, lhs=settled.lhs.add_pure([PtrEq(z, y)]))
    choice = normalize_module.apply_subst(eq, registry)
    assert choice.label == "Subst"
    (prem,) = choice.premises
    assert prem.lhs.apart == {x, y}
    assert_facts_fresh(prem.lhs, registry)
    visited = []
    real = normalize_module._pairs

    def spy(*args):
        for pair in real(*args):
            visited.append(pair)
            yield pair

    with mock.patch.object(normalize_module, "_pairs", spy):
        assert normalize_module.normalize_step(prem, registry) is None
    assert visited == []


def test_dropping_a_reflexive_equality_keeps_settled_roots(registry):
    cells = (PointsTo(x, "c1", (NULL,)), PointsTo(y, "c1", (NULL,)))
    e = Entailment(SymbolicHeap(cells, (PtrNeq(x, NULL),)), SymbolicHeap())
    ((settled, _),) = normalize(e, registry)
    refl = replace(settled, lhs=settled.lhs.add_pure([PtrEq(z, z)]))
    choice = normalize_module.apply_eq_l(refl, registry)
    (prem,) = choice.premises
    assert choice.label == "=L" and prem.lhs.pure == settled.lhs.pure
    assert prem.lhs.apart == {x, y}
    assert_facts_fresh(prem.lhs, registry)
    # any other dropped atom leaves nothing settled
    for atom in (PtrNeq(y, z), PtrEq(x, z)):
        grown = settled.lhs.add_pure([atom])
        assert grown.apart == {x, y}
        other = grown.drop_pure_at(len(grown.pure) - 1)
        assert not other.apart


PURE_FACTS = ("pure_set", "pure_fv", "apart")


def test_star_premises_keep_the_pure_facts(reg):
    e = parse_query("lls(x, null, mi, ma) /\\ x!=null |- llb(x, null, mi)")
    tree = prove(e, reg).tree
    (at,) = {n.parent for n in tree.nodes.values() if n.edge and n.edge.rule == "Star"}
    parent = tree.node(at).ent
    assert parent.lhs.apart
    choice = _star(parent, reg, FreshNames())
    assert choice.label == "Star"
    for prem in choice.premises:
        assert prem.lhs.pure is parent.lhs.pure
        for name in PURE_FACTS:
            assert prem.lhs.__dict__[name] is parent.lhs.__dict__[name], name
        assert prem.lhs.__dict__["normal_for"] is reg


def nll_seg_third(reg):
    """A registry where nll's segment is its third argument, not its second."""
    nll = reg.preds["nll"]
    r, f, b = nll.params
    other = make_registry()
    params = (r, replace(f, role=Role.BORDER), replace(b, role=Role.SEG))
    other.preds["nll"] = replace(nll, params=params)
    return other


def test_guards_follow_the_registry(reg):
    other = nll_seg_third(reg)
    heap = SymbolicHeap((PredOcc("nll", (x, y, z)),))
    for which in (reg, other, reg):
        assert guards(heap, which) == (guard_of(heap.spatial[0], which),)
    assert guards(heap, reg) != guards(heap, other)


def test_normal_record_follows_the_registry(reg):
    # x!=y spells out nll's guard under `reg`, so the left side is normal
    # there and Id closes the leaf; under `other` the guard is x!=z, which
    # ExM splits on
    other = nll_seg_third(reg)
    occ = (PredOcc("nll", (x, y, z)),)
    lhs = SymbolicHeap(occ, (PtrNeq(x, y), PtrNeq(x, NULL)))
    ent = Entailment(lhs, SymbolicHeap(occ))
    calls = []
    real = engine.normalize_step

    def spy(*args):
        calls.append(args[1])
        return real(*args)

    labels = []
    with mock.patch.object(engine, "normalize_step", spy):
        for which in (reg, other, reg, other):
            got = _select(ent, which, FreshNames())
            bare = replace(ent, lhs=SymbolicHeap(ent.lhs.spatial, ent.lhs.pure))
            assert got == _select(bare, which, FreshNames())
            labels.append(got.label)
    assert labels == ["Id", "ExM", "Id", "ExM"]
    assert ent.lhs.__dict__["normal_for"] is reg
    # the second look under `reg` skips normalization; the bare copies do not
    assert calls == [reg, reg, other, other, reg, other, other]


def test_materialized_names_are_apart_from_the_heap(reg):
    # the leaf's 3<=d#2 bounds the data field of the first llb cell; the
    # materialization of the other llb must make a name other than d#2
    ent = parse_query(dict((n, s) for n, s, _ in SUITE)["llb_concat_literal"])
    tree = prove(ent, reg).tree
    made, at_d2 = [], 0
    real = FreshNames.make

    def spy(self, base):
        made.append(real(self, base))
        return made[-1]

    with mock.patch.object(FreshNames, "make", spy):
        for n in tree.nodes.values():
            lhs = n.ent.lhs
            _base_pure(lhs, reg)
            base_of(lhs, reg)
            assert not set(made) & lhs.fv()
            at_d2 += bool(made) and "d#2" in lhs.fv()
            made.clear()
    assert at_d2
