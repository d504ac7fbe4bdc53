"""Semantic oracle: satisfaction, bases, bad models, bounded entailment.

Model counts and counter-models asserted here were produced by this oracle
and frozen; they pin the enumeration order and the canonical location
naming, so regressions in either show up as count or witness drift.  The
recursive satisfaction check and backtracking enumerator at the end of the
module are the straightforward reading of the semantics; the oracle's
iterative versions must agree with them model for model.
"""

import ast
import itertools
import operator
import re
import tracemalloc
from pathlib import Path
from typing import NamedTuple, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MALFORMED_ATOMS, entailments, make_registry, parse_query
from suite_cases import SUITE
from sepent import oracle
from sepent.defs import (
    InductiveDef,
    Param,
    RecBranch,
    Registry,
    Role,
    SortDecl,
    base_of,
)
from sepent.counter import bad_model
from sepent.engine import prove
from sepent.oracle import (
    Bound,
    Cell,
    HeapModel,
    OracleError,
    confirm_countermodel,
    holds,
    models_of,
    oracle_entails,
)
from sepent.parser import parse_native
from sepent.slcomp import parse_slcomp
from sepent.syntax import (
    ArithEq,
    ArithLeq,
    Entailment,
    Expr,
    FreshNames,
    IntLit,
    NULL,
    Null,
    PointsTo,
    PredOcc,
    PtrEq,
    PtrNeq,
    PureAtom,
    SymbolicHeap,
    Var,
)

x, y, B, mi, ma, b = Var("x"), Var("y"), Var("B"), Var("mi"), Var("ma"), Var("b")
a_ = Var("a")


def heap(spatial, pure=()):
    return SymbolicHeap(tuple(spatial), tuple(pure))


def ent(lhs, rhs):
    return Entailment(lhs, rhs)


# ----------------------------------------------------------------- satisfaction


def test_one_cell_list(registry):
    m = HeapModel({"x": 1}, {1: Cell("c1", (0,))}, frozenset({"x"}))
    assert holds(m, heap([PredOcc("ll", (x, NULL))]), registry)


def test_empty_heap_base_branch(registry):
    m = HeapModel({"x": 1}, {}, frozenset({"x"}))
    assert holds(m, heap([PredOcc("ll", (x, x))]), registry)
    assert not holds(m, heap([PredOcc("ll", (x, NULL))], [PtrNeq(x, NULL)]), registry)


def test_exact_cover_rejects_leftover_cells(registry):
    m = HeapModel(
        {"x": 1}, {1: Cell("c1", (0,)), 2: Cell("c1", (0,))}, frozenset({"x"})
    )
    assert not holds(m, heap([PredOcc("ll", (x, NULL))]), registry)


def test_sorted_list_needs_ascending_values(registry):
    cells = {1: Cell("c4", (2, 5)), 2: Cell("c4", (0, 3))}
    m = HeapModel({"x": 1, "mi": 0, "ma": 3}, cells, frozenset({"x"}))
    assert not holds(m, heap([PredOcc("lls", (x, NULL, mi, ma))]), registry)
    cells = {1: Cell("c4", (2, 3)), 2: Cell("c4", (0, 5))}
    m = HeapModel({"x": 1, "mi": 0, "ma": 5}, cells, frozenset({"x"}))
    assert holds(m, heap([PredOcc("lls", (x, NULL, mi, ma))]), registry)


def test_tree_satisfaction(registry):
    cells = {
        1: Cell("ct", (2, 3)),
        2: Cell("ct", (0, 0)),
        3: Cell("ct", (0, 0)),
    }
    m = HeapModel({"x": 1}, cells, frozenset({"x"}))
    assert holds(m, heap([PredOcc("tree", (x, NULL))]), registry)


def test_unfold_annotation_is_ignored(registry):
    m = HeapModel({"x": 1}, {1: Cell("c1", (0,))}, frozenset({"x"}))
    assert holds(m, heap([PredOcc("ll", (x, NULL), unfold=7)]), registry)


def test_deep_list_model(registry):
    # far deeper than the interpreter's recursion limit
    n = 5000
    cells = {i: Cell("c1", (i + 1 if i < n else 0,)) for i in range(1, n + 1)}
    m = HeapModel({"x": 1}, cells, frozenset({"x"}))
    assert holds(m, heap([PredOcc("ll", (x, NULL))]), registry)
    del cells[n // 2]
    assert not holds(m, heap([PredOcc("ll", (x, NULL))]), registry)


# ------------------------------------------------------------------ base_of


def test_base_of_plain_list(registry):
    out = base_of(heap([PredOcc("ll", (x, y))]), registry)
    assert out.pretty() == "x->c1(y) /\\ x!=y"


def test_base_of_keeps_cells(registry):
    cell = PointsTo(x, "c1", (y,))
    out = base_of(heap([cell]), registry)
    assert out.spatial == (cell,)


def test_base_of_nested_list_materializes_matrix(registry):
    out = base_of(heap([PredOcc("nll", (x, y, B))]), registry)
    assert out.pretty() == "x->c3(y, Z#b1) * Z#b1->c1(B) /\\ x!=y /\\ Z#b1!=B"


def test_base_of_tree_closes_self_matrix_empty(registry):
    out = base_of(heap([PredOcc("tree", (x, y))]), registry)
    assert out.pretty() == "x->ct(y, y) /\\ x!=y"


def test_base_of_sorted_list_rewires_order_target(registry):
    out = base_of(heap([PredOcc("lls", (x, NULL, mi, ma))], [PtrNeq(x, NULL)]), registry)
    assert out.pretty() == "x->c4(null, ma) /\\ x!=null /\\ mi<=ma"


def test_base_of_skiplist_three_levels(registry):
    out = base_of(heap([PredOcc("skl3", (x, y))]), registry)
    assert len(out.spatial) == 4  # one node per level plus the level-1 hop
    assert all(a.sort == "c5" for a in out.spatial)


@pytest.mark.parametrize(
    "occ",
    [
        PredOcc("ll", (x, NULL)),
        PredOcc("lla", (x, NULL, Var("u"))),
        PredOcc("lls", (x, NULL, mi, ma)),
        PredOcc("llb", (x, NULL, b)),
        PredOcc("nll", (x, NULL, B)),
        PredOcc("skl1", (x, NULL)),
        PredOcc("skl2", (x, NULL)),
        PredOcc("skl3", (x, NULL)),
        PredOcc("tree", (x, NULL)),
    ],
    ids=lambda o: o.pred,
)
def test_base_underapproximates(registry, occ):
    # base(kappa) /\ pi entails kappa, checked semantically at depth 3
    lhs = base_of(heap([occ], [PtrNeq(x, NULL)]), registry)
    verdict = oracle_entails(
        ent(lhs, heap([occ], [PtrNeq(x, NULL)])), registry, Bound(max_unfold=3)
    )
    assert verdict.bounded_valid


# ------------------------------------------------------------ independence


def _package_imports(path):
    """Modules of the sepent package that the source file imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(
                a.name.split(".")[1] for a in node.names if a.name.startswith("sepent.")
            )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "sepent":
                    continue
                module = module.partition(".")[2]
            if module:
                out.add(module.split(".")[0])
            else:
                out.update(a.name for a in node.names)
    return out


SRC = Path(__file__).resolve().parents[1] / "src" / "sepent"


def test_oracle_imports_only_syntax_and_defs():
    assert _package_imports(SRC / "oracle.py") == {"syntax", "defs"}


def test_normalize_imports_nothing_from_engine():
    assert "engine" not in _package_imports(SRC / "normalize.py")


def test_certify_imports_only_syntax_defs_and_pure():
    assert _package_imports(SRC / "certify.py") <= {"syntax", "defs", "pure"}


def test_counter_imports_neither_engine_nor_normalize():
    assert not _package_imports(SRC / "counter.py") & {"engine", "normalize"}


# ------------------------------------------------------------------ bad_model


def test_bad_model_single_cell(registry):
    m = bad_model(heap([PointsTo(x, "c1", (NULL,))], [PtrNeq(x, NULL)]), registry)
    assert m.stack == {"x": 1}
    assert m.heap == {1: Cell("c1", (0,))}


def test_bad_model_golden_base(registry):
    base = base_of(heap([PredOcc("lls", (x, NULL, mi, ma))], [PtrNeq(x, NULL)]), registry)
    m = bad_model(base, registry)
    assert m.stack["mi"] == 0 and m.stack["ma"] == 0
    assert m.heap == {1: Cell("c4", (0, 0))}


def test_bad_model_distinct_locations(registry):
    h = heap(
        [PointsTo(x, "c1", (y,)), PointsTo(y, "c1", (NULL,))],
        [PtrNeq(x, y), PtrNeq(x, NULL), PtrNeq(y, NULL)],
    )
    m = bad_model(h, registry)
    assert m.stack["x"] != m.stack["y"]
    assert len(m.heap) == 2


def test_bad_model_rejects_occurrences(registry):
    with pytest.raises(OracleError):
        bad_model(heap([PredOcc("ll", (x, NULL))]), registry)


def test_bad_model_satisfies_input(registry):
    base = base_of(heap([PredOcc("nll", (x, NULL, B))], [PtrNeq(x, NULL)]), registry)
    m = bad_model(base, registry)
    assert holds(m, base, registry)


# ----------------------------------------------------------- model enumeration


@pytest.mark.parametrize(
    "spatial,count",
    [
        ([PredOcc("ll", (x, NULL))], 5),
        ([PredOcc("ll", (x, y)), PredOcc("ll", (y, NULL))], 22),
        ([PredOcc("lla", (x, NULL, Var("u")))], 50),
        ([PredOcc("tree", (x, NULL))], 189),
        ([PredOcc("nll", (x, NULL, B))], 242),
        ([PredOcc("skl3", (x, NULL))], 351),
    ],
    ids=["ll", "ll-concat", "lla", "tree", "nll", "skl3"],
)
def test_model_counts_at_default_bound(registry, spatial, count):
    assert sum(1 for _ in models_of(heap(spatial), registry)) == count


def test_models_pass_self_check(registry):
    h = heap([PredOcc("lls", (x, NULL, mi, ma))])
    bound = Bound(max_unfold=3)
    models = list(models_of(h, registry, bound))
    assert len(models) == 1000
    assert all(holds(m, h, registry, bound) for m in models)


def test_enumeration_is_deterministic(registry):
    h = heap([PredOcc("nll", (x, NULL, B))])
    first = [m.key() for m in models_of(h, registry)]
    second = [m.key() for m in models_of(h, registry)]
    assert first == second


@pytest.mark.parametrize(
    "atoms,refuted",
    [
        ((PtrEq(x, y), PtrNeq(x, y)), True),
        ((PtrEq(x, NULL), PtrEq(y, x), PtrNeq(y, NULL)), True),
        ((ArithEq(a_, IntLit(1)), ArithEq(a_, IntLit(2))), True),
        ((PtrNeq(x, x),), True),
        ((ArithLeq(a_, b), ArithLeq(b, a_), PtrNeq(a_, b)), False),
        ((ArithEq(a_, IntLit(1)), ArithLeq(a_, IntLit(0))), True),
        ((PtrEq(x, y), PtrNeq(x, y), PtrEq(x, IntLit(1))), False),
        ((PtrEq(x, y), PtrNeq(x, y), ArithLeq(a_, NULL)), False),
    ],
    ids=[
        "eq-neq",
        "null-chain",
        "two-constants",
        "self-neq",
        "order-only",
        "leq-below-literal",
        "int-in-ptr-atom",
        "null-in-arith-atom",
    ],
)
def test_refuted_variants(atoms, refuted):
    assert oracle._refuted(atoms, oracle._implication(atoms)) is refuted


def test_oracle_keeps_one_model_at_a_time(registry):
    # The premise has no variable its models do not show, so nothing is
    # kept between its models; a set of every model's key would peak at
    # about 2 MiB here.
    e = parse_query("lls(x, null, mi, ma) /\\ x!=null |- llb(x, null, mi)")
    bound = Bound(4, 6)
    assert sum(1 for _ in models_of(e.lhs, registry, bound)) == 2992
    oracle_entails(e, registry, bound)  # one-time allocations stay out of the peak
    tracemalloc.start()
    try:
        assert oracle_entails(e, registry, bound).bounded_valid
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_right_side_compiled_once_per_call(registry, monkeypatch):
    # 22 models, each with a nonempty step of ll on the right: the step is
    # compiled once, before the first of them
    compiled = []
    compile_step = oracle._compile_step
    monkeypatch.setattr(
        oracle,
        "_compile_step",
        lambda step, d, *rest: (compiled.append(d.name), compile_step(step, d, *rest))[1],
    )
    e = parse_query("ll(x, y) * ll(y, null) |- ll(x, null)")
    assert oracle_entails(e, registry).bounded_valid
    assert compiled == ["ll"]


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(oracle, name)
    monkeypatch.setattr(oracle, name, lambda *args: (calls.append(1), fn(*args))[1])
    return calls


def test_right_side_walked_once_per_pointer_shape(registry, monkeypatch):
    # 17,296 models in 13 unfoldings, one per pair of segment lengths. The
    # pointers of an unfolding are fixed and only the cells' data values
    # vary, so each unfolding is one shape. The settlement pass walks it
    # once, its residual follows from the unfolding's own atoms, and no
    # model is checked.
    e = parse_query(next(s for n, s, _ in SUITE if n == "llb_concat_literal"))
    walks = _count_calls(monkeypatch, "_covers")
    concrete = _count_calls(monkeypatch, "_holds")
    bound = Bound(4, 6)
    assert sum(1 for _ in models_of(e.lhs, registry, bound)) == 17296
    assert oracle_entails(e, registry, bound).bounded_valid
    assert (len(walks), len(concrete)) == (13, 0)


def test_choice_point_on_the_right_checks_each_model(monkeypatch):
    # A nonempty step of lsx chooses its order source, so the settlement
    # pass gives up on each of the 9 unfoldings with x allocated at its
    # first shape, and each of their 195 models is checked in full. The
    # unfolding with x=null takes the empty branches, whose residual a=c
    # follows from its own atoms, so its 5 models are settled, not checked.
    e, reg = _lsx_problem(LSX_CONCAT)
    models = list(models_of(e.lhs, reg, SMALL))
    walks = _count_calls(monkeypatch, "_covers")
    concrete = _count_calls(monkeypatch, "_holds")
    assert oracle_entails(e, reg, SMALL).bounded_valid
    assert len(models) == 200
    assert sum(m.stack["x"] == 0 for m in models) == 5
    assert len(concrete) == 195
    assert len(walks) == 10 + 195  # one per unfolding, then one per model checked


@pytest.mark.parametrize("bound", [Bound(4, 6), Bound(4, 6, -30, 60)], ids=["data", "wide-data"])
@pytest.mark.parametrize(
    "name", ["llb_concat_literal", "golden_sorted_to_bounded", "subst_int_alias", "lla_id"]
)
def test_settled_premises_enumerate_no_data(registry, monkeypatch, name, bound):
    # Each residual of these premises' shapes follows from the unfolding's
    # own atoms, so no unfolding reaches the model-by-model loop, and a
    # wider data range adds no work. In lla_id the segment's end can
    # dangle; the conclusion reads every variable at its premise kind.
    assignments = oracle._assignments
    exact = []

    def counting(*args, ints=True):
        for env in assignments(*args, ints=ints):
            if ints:
                exact.append(1)
            yield env

    monkeypatch.setattr(oracle, "_assignments", counting)
    e = parse_query(next(s for n, s, _ in SUITE if n == name))
    assert oracle_entails(e, registry, bound).bounded_valid
    assert len(exact) == 0


_implied = oracle._implication(
    (
        ArithLeq(a_, b),
        ArithLeq(b, Var("c")),
        ArithEq(Var("e"), a_),
        ArithLeq(IntLit(2), Var("d")),
        PtrNeq(x, y),
    )
)


@pytest.mark.parametrize(
    "check,implied",
    [
        ((operator.le, "a", "c"), True),  # a <= b <= c
        ((operator.le, "c", "a"), False),
        ((operator.le, "a", "a"), True),
        ((operator.eq, "a", "e"), True),  # e = a, read both ways
        ((operator.le, "e", "c"), True),
        ((operator.eq, "a", "b"), False),
        ((operator.le, 0, "d"), True),  # 0 <= 2 <= d
        ((operator.le, 2, "d"), True),
        ((operator.le, 3, "d"), False),
        ((operator.le, "d", 9), False),
        ((operator.ne, "a", "c"), False),  # no other comparison is implied
        ((operator.eq, "x", "y"), False),
    ],
    ids=[
        "leq-chain",
        "leq-reversed",
        "leq-self",
        "eq-reversed",
        "eq-then-leq",
        "leq-not-eq",
        "literal-step",
        "literal",
        "literal-above",
        "no-upper-bound",
        "neq",
        "pointer-atoms-ignored",
    ],
)
def test_implication_of_arithmetic_atoms(check, implied):
    assert _implied(check) is implied


def test_implication_refuses_null_in_arithmetic():
    assert oracle._implication((ArithLeq(a_, b), ArithLeq(NULL, a_))) is None


def test_implication_refuses_atoms_without_a_model():
    # 5 <= a <= b = 2: the unfolding has no model, which is not the answer
    # for null in arithmetic (None)
    atoms = (ArithLeq(IntLit(5), a_), ArithLeq(a_, b), ArithEq(IntLit(2), b))
    assert oracle._implication(atoms) is False
    assert oracle._implication(atoms[:2])
    assert oracle._implication((ArithLeq(IntLit(5), a_), ArithLeq(a_, IntLit(2)))) is False
    assert oracle._implication((ArithLeq(IntLit(5), a_), ArithLeq(a_, IntLit(5))))


@pytest.mark.parametrize(
    "args,msg",
    [
        ((3, 3, 5, 2), "data_min 5 is above data_max 2"),
        ((3, 3, 3, 2), "data_min 3 is above data_max 2"),
        ((3, -2), "max_locs must be at least 0, not -2"),
        ((3, -1), "max_locs must be at least 0, not -1"),
        ((-1, 3), "max_unfold must be at least 0, not -1"),
    ],
    ids=["data-range", "empty-data-range", "locs", "locs-minus-one", "unfold"],
)
def test_ill_formed_bound_refused(registry, args, msg):
    # Each of these bounds once let the premise have no models, so the
    # oracle called this invalid entailment bounded-valid.
    e = parse_query("lls(x, null, a, b) /\\ x!=null |- emp")
    assert not oracle_entails(e, registry, Bound(3, 3)).bounded_valid
    with pytest.raises(ValueError, match=msg):
        Bound(*args)


def test_smallest_bound_accepted(registry):
    bound = Bound(0, 0, 2, 2)
    assert bound.data_range() == range(2, 3)
    assert oracle_entails(parse_query("emp |- emp"), registry, bound).bounded_valid


def test_long_premise_enumerates_without_deep_recursion(registry):
    # 1,200 occurrences: the unfolding walk keeps its choices on a stack,
    # not in nested generators, so it does not hit the recursion limit
    xs = [Var(f"x{i}") for i in range(1201)]
    h = heap([PredOcc("ll", (xs[i], xs[i + 1])) for i in range(1200)])
    first = next(models_of(h, registry, Bound(1, 1)))
    assert first.heap == {} and set(first.stack.values()) == {0}


def test_ill_kinded_atom_still_raises(registry):
    h = heap([], [PtrEq(x, y), PtrNeq(x, y), PtrEq(x, IntLit(1))])
    with pytest.raises(OracleError, match="integer literal 1 in pointer position"):
        list(models_of(h, registry))


def test_tree_premise_with_contradicted_segment(registry):
    # 25 of the 37 unfoldings of the premise contradict a disequality, 22 of
    # them through v=y against y!=v; the oracle must not enumerate them
    e = parse_query(
        "lls(v, y, b, b) * tree(w, z) /\\ b<=2 /\\ w!=null /\\ y!=v /\\ z!=w"
        " /\\ w!=y /\\ v!=null /\\ b<=3 |- z->c1(w)"
    )
    v = oracle_entails(e, registry, Bound(3, 4))
    assert not v.bounded_valid
    assert confirm_countermodel(v.counter, e, registry, Bound(3, 4))


# ------------------------------------------------------------------ entailment


def test_base_case_countermodel(registry):
    v = oracle_entails(
        ent(heap([PredOcc("ll", (x, NULL))]), heap([PredOcc("ll", (x, NULL))], [PtrNeq(x, NULL)])),
        registry,
    )
    assert not v.bounded_valid
    assert v.counter.stack == {"x": 0} and v.counter.heap == {}


def test_golden_entailment_bounded_valid(registry):
    v = oracle_entails(
        ent(
            heap([PredOcc("lls", (x, NULL, mi, ma))], [PtrNeq(x, NULL)]),
            heap([PredOcc("llb", (x, NULL, mi))]),
        ),
        registry,
    )
    assert v.bounded_valid


def test_sorted_to_border_wrong_end_invalid(registry):
    v = oracle_entails(
        ent(
            heap([PredOcc("lls", (x, NULL, mi, ma))]),
            heap([PredOcc("llb", (x, NULL, ma))]),
        ),
        registry,
    )
    assert not v.bounded_valid
    # first counter found: two cells, head value strictly below the target
    assert v.counter.stack == {"ma": -2, "mi": -3, "x": 1}
    assert v.counter.heap == {1: Cell("c4", (2, -3)), 2: Cell("c4", (0, -2))}
    assert confirm_countermodel(
        v.counter,
        ent(
            heap([PredOcc("lls", (x, NULL, mi, ma))]),
            heap([PredOcc("llb", (x, NULL, ma))]),
        ),
        registry,
    )


def test_border_weakening_direction(registry):
    strong = heap([PredOcc("llb", (x, NULL, IntLit(2)))])
    weak = heap([PredOcc("llb", (x, NULL, IntLit(0)))])
    assert oracle_entails(ent(strong, weak), registry).bounded_valid
    v = oracle_entails(ent(weak, strong), registry)
    assert not v.bounded_valid


def test_dropped_border_keeps_its_data_domain(registry):
    # the empty unfolding of llb(x, null, b) drops b; it still ranges over
    # the data values, so b=-1 refutes 0<=b, as the prover finds
    e = parse_query("llb(x, null, b) /\\ x=null |- emp /\\ 0<=b")
    assert not prove(e, registry).valid
    v = oracle_entails(e, registry, Bound(4, 6))
    assert not v.bounded_valid
    assert v.counter.stack == {"b": -3, "x": 0} and v.counter.heap == {}
    assert v.counter.ptr_vars == frozenset({"x"})
    assert confirm_countermodel(v.counter, e, registry, Bound(4, 6))


def test_invalidity_persists_at_larger_bound(registry):
    e = ent(
        heap([PredOcc("lls", (x, NULL, mi, ma))]),
        heap([PredOcc("llb", (x, NULL, ma))]),
    )
    small = oracle_entails(e, registry, Bound(max_unfold=2, max_locs=3))
    large = oracle_entails(e, registry, Bound(max_unfold=5, max_locs=6))
    assert not small.bounded_valid and not large.bounded_valid
    assert confirm_countermodel(small.counter, e, registry)


def _root_second_registry(registry):
    """The list lr(seg F, root r), built by hand: the parsers refuse it."""
    r, f, X = Var("r"), Var("F"), Var("X")
    lr = InductiveDef(
        "lr",
        (Param("F", Role.SEG), Param("r", Role.ROOT)),
        RecBranch(
            exists=("X",),
            head=PointsTo(r, "c1", (X,)),
            matrix=(),
            rec=PredOcc("lr", (f, X)),
            order=None,
            arith=(),
        ),
    )
    return Registry(sorts=dict(registry.sorts), preds={"lr": lr})


def test_root_second_registry_rejected(registry):
    # Read with argument 0 as the root, lr(null, x) |- emp would come out
    # bounded-valid, though x->c1(null) refutes it.
    reg = _root_second_registry(registry)
    e = ent(heap([PredOcc("lr", (NULL, x))]), heap([]))
    model = HeapModel({"x": 1}, {1: Cell("c1", (0,))}, frozenset({"x"}))
    msg = "lr: the root parameter must come first"
    with pytest.raises(ValueError, match=msg):
        oracle_entails(e, reg, Bound(3, 3))
    with pytest.raises(ValueError, match=msg):
        models_of(e.lhs, reg, Bound(3, 3))  # at the call, before iterating
    with pytest.raises(ValueError, match=msg):
        confirm_countermodel(model, e, reg, Bound(3, 3))


@pytest.mark.parametrize("shape", sorted(MALFORMED_ATOMS))
def test_malformed_atom_rejected(registry, shape):
    # with one field in c1, oracle_entails answered x->c1(y, z) |- ll(x, y)
    # with a one-value c1 cell, and an unknown sort or predicate raised
    # KeyError
    atom, msg = MALFORMED_ATOMS[shape]
    z = Var("z")
    premise = heap([PointsTo(x, "c1", (y,))], [PtrNeq(z, NULL)])
    model = HeapModel({"x": 1, "y": 0, "z": 2}, {1: Cell("c1", (0,))}, frozenset("xyz"))
    match = re.escape(msg)
    with pytest.raises(ValueError, match=match):
        models_of(heap([atom]), registry, Bound(3, 3))
    for e in (ent(heap([atom]), heap([])), ent(premise, heap([atom]))):
        with pytest.raises(ValueError, match=match):
            oracle_entails(e, registry, Bound(3, 3))
        with pytest.raises(ValueError, match=match):
            confirm_countermodel(model, e, registry, Bound(3, 3))


# ------------------------------------------------- reference implementations
#
# The oracle's earlier recursive satisfaction check and backtracking
# enumerator, kept verbatim as the specification the iterative ones must
# match: the same verdicts, the same errors and the same models in the same
# order.


def _ref_ptr_val(e, env):
    if isinstance(e, Null):
        return 0
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise OracleError(f"unbound variable {e.name}") from None
    raise OracleError(f"integer literal {e} in pointer position")


def _ref_data_val(e, env):
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise OracleError(f"unbound variable {e.name}") from None
    raise OracleError("null in arithmetic position")


def _ref_field_val(e, ftype, env):
    return _ref_data_val(e, env) if ftype == "int" else _ref_ptr_val(e, env)


def _ref_eval(a, env):
    if isinstance(a, PtrEq):
        return _ref_ptr_val(a.lhs, env) == _ref_ptr_val(a.rhs, env)
    if isinstance(a, PtrNeq):
        return _ref_ptr_val(a.lhs, env) != _ref_ptr_val(a.rhs, env)
    if isinstance(a, ArithEq):
        return _ref_data_val(a.lhs, env) == _ref_data_val(a.rhs, env)
    if isinstance(a, ArithLeq):
        return _ref_data_val(a.lhs, env) <= _ref_data_val(a.rhs, env)
    raise TypeError(a)


def ref_holds(model, heap, reg, bound=oracle.DEFAULT_BOUND):
    env = model.stack
    if not all(_ref_eval(a, env) for a in heap.pure):
        return False
    vals = set(bound.data_range())
    vals.update(model.stack.values())
    for c in model.heap.values():
        vals.update(c.values)
    hint = tuple(sorted(vals))
    pending = [(a, env) for a in heap.spatial]
    return _ref_covers(dict(model.heap), pending, reg, hint)


def _ref_covers(cells, pending, reg, hint):
    if not pending:
        return not cells
    atom, env = pending[0]
    rest = pending[1:]
    if isinstance(atom, PointsTo):
        loc = _ref_ptr_val(atom.root, env)
        cell = cells.get(loc)
        if loc == 0 or cell is None or cell.sort != atom.sort:
            return False
        decl = reg.sorts[atom.sort]
        for (_, ftype), e, v in zip(decl.fields, atom.fields, cell.values):
            if _ref_field_val(e, ftype, env) != v:
                return False
        return _ref_covers({l: c for l, c in cells.items() if l != loc}, rest, reg, hint)

    d = reg.preds[atom.pred]
    rootv = _ref_ptr_val(atom.root, env)
    segv = _ref_ptr_val(atom.args[d.seg_index], env)
    if rootv == segv:
        empty_ok = True
        if d.order_pair is not None:
            si, ti = d.order_pair
            empty_ok = _ref_data_val(atom.args[si], env) == _ref_data_val(atom.args[ti], env)
        if empty_ok and _ref_covers(cells, rest, reg, hint):
            return True
    cell = cells.get(rootv)
    if rootv != segv and rootv != 0 and cell is not None and cell.sort == d.rec.head.sort:
        benv = {}
        for p, a in zip(d.params, atom.args):
            benv[p.name] = _ref_ptr_val(a, env) if p.kind == "ptr" else _ref_data_val(a, env)
        decl = reg.sorts[cell.sort]
        ex = set(d.rec.exists)
        ok = True
        for (_, ftype), e, v in zip(decl.fields, d.rec.head.fields, cell.values):
            if isinstance(e, Var) and e.name in ex and e.name not in benv:
                benv[e.name] = v
            elif _ref_field_val(e, ftype, benv) != v:
                ok = False
                break
        if ok:
            for ext in _ref_ex_choices(d, reg, benv, hint):
                env2 = benv | ext
                side = ([] if d.rec.order is None else [d.rec.order]) + list(d.rec.arith)
                if not all(_ref_eval(a, env2) for a in side):
                    continue
                sub = [(m, env2) for m in d.rec.matrix] + [(d.rec.rec, env2)]
                cells2 = {l: c for l, c in cells.items() if l != rootv}
                if _ref_covers(cells2, sub + rest, reg, hint):
                    return True
    return False


# `defs.existential_kinds` verbatim, kept here after the package lost its
# last caller: the reference enumerator and the invariant test below read it.
def _existential_kinds(d, reg):
    """Sort of each existential, read off the head cell (src existential is int)."""
    kinds = {}
    decl = reg.sorts[d.rec.head.sort]
    ex = set(d.rec.exists)
    for (_, ftype), e in zip(decl.fields, d.rec.head.fields):
        if isinstance(e, Var) and e.name in ex:
            kinds[e.name] = "int" if ftype == "int" else "ptr"
    src_ex = d.src_existential()
    if src_ex is not None:
        kinds.setdefault(src_ex, "int")
    return kinds


def _ref_ex_choices(d, reg, benv, hint):
    unbound = [w for w in d.rec.exists if w not in benv]
    if not unbound:
        yield {}
        return
    kinds = _existential_kinds(d, reg)
    for w in unbound:
        if kinds.get(w, "int") != "int":
            raise OracleError(f"{d.name}: existential {w} not determined by head cell")
    for combo in itertools.product(hint, repeat=len(unbound)):
        yield dict(zip(unbound, combo))


def ref_models_of(heap, reg, bound):
    stack_names = tuple(sorted(heap.fv()))
    input_kinds = oracle.kinds_of(heap, reg)
    seen = set()
    for cells, pure_atoms in oracle._expand(heap, reg, bound, FreshNames()):
        kinds = input_kinds | oracle.kinds_of(SymbolicHeap(cells, pure_atoms), reg)
        for env in _ref_assignments(cells, pure_atoms, stack_names, kinds, bound):
            hp = {}
            for i, c in enumerate(cells):
                decl = reg.sorts[c.sort]
                hp[i + 1] = Cell(
                    c.sort,
                    tuple(
                        _ref_field_val(e, ftype, env)
                        for (_, ftype), e in zip(decl.fields, c.fields)
                    ),
                )
            stack = {n: env[n] for n in stack_names}
            ptr_vars = frozenset(n for n in stack_names if kinds.get(n) == "ptr")
            model = HeapModel(stack, hp, ptr_vars)
            key = model.key()
            if key in seen:
                continue
            seen.add(key)
            yield model


def _ref_assignments(cells, pure_atoms, stack_names, kinds, bound):
    env = {}
    n = len(cells)
    for i, c in enumerate(cells):
        if not isinstance(c.root, Var) or c.root.name in env:
            return
        env[c.root.name] = i + 1

    order = []
    placed = set(env)

    def add(e):
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
    ready = [[] for _ in range(len(order) + 1)]
    for a in pure_atoms:
        slot = 0
        for e in (a.lhs, a.rhs):
            if isinstance(e, Var) and e.name in pos:
                slot = max(slot, pos[e.name] + 1)
        ready[slot].append(a)
    if not all(_ref_eval(a, env) for a in ready[0]):
        return

    data_domain = tuple(bound.data_range())

    def bt(i, used_fresh):
        if i == len(order):
            yield dict(env)
            return
        name = order[i]
        if kinds.get(name, "ptr") == "int":
            domain = data_domain
        else:
            dom = list(range(n + 1))
            top = min(n + used_fresh + 1, bound.max_locs)
            dom.extend(range(n + 1, top + 1))
            domain = tuple(dom)
        for v in domain:
            env[name] = v
            uf = used_fresh + (1 if v == n + used_fresh + 1 else 0)
            if all(_ref_eval(a, env) for a in ready[i + 1]):
                yield from bt(i + 1, uf)
        del env[name]

    yield from bt(0, 0)


# ------------------------------------------------ agreement with the reference


def _outcome(fn):
    try:
        return fn()
    except OracleError as e:
        return ("OracleError", str(e))


def ref_entails(ent, reg, bound):
    """The verdict and the key of the countermodel: the first model of the
    left side that the right side does not hold in."""
    for m in ref_models_of(ent.lhs, reg, bound):
        if not ref_holds(m, ent.rhs, reg, bound):
            return False, m.key()
    return True, None


def _assert_entails_agrees(ent, reg, bound):
    def got():
        v = oracle_entails(ent, reg, bound)
        return v.bounded_valid, None if v.counter is None else v.counter.key()

    want = _outcome(lambda: ref_entails(ent, reg, bound))
    assert _outcome(got) == want
    return want


def _assert_agrees(ent, reg, bound):
    """Same model sequence on each side, same holds verdict of every model
    of either side against each side, same entailment verdict and
    countermodel."""
    _assert_entails_agrees(ent, reg, bound)
    models = []
    for side in (ent.lhs, ent.rhs):
        got = _outcome(lambda: [m.key() for m in models_of(side, reg, bound)])
        want = _outcome(lambda: list(ref_models_of(side, reg, bound)))
        if isinstance(want, list):
            assert got == [m.key() for m in want]
            models.extend(want)
        else:
            assert got == want
    for m in models:
        for side in (ent.lhs, ent.rhs):
            assert _outcome(lambda: holds(m, side, reg, bound)) == _outcome(
                lambda: ref_holds(m, side, reg, bound)
            )
    return models


SMALL = Bound(3, 3, -1, 3)
# A data range wider than the locations: data values reach past every
# location, and settled unfoldings skip many models each.
WIDE = Bound(3, 4, -6, 9)


@pytest.mark.parametrize("case", SUITE, ids=[c[0] for c in SUITE])
def test_suite_agrees_with_reference(registry, case):
    _, sequent, valid = case
    e = parse_query(sequent)
    _assert_agrees(e, registry, SMALL)
    _assert_entails_agrees(e, registry, WIDE)
    # the bound the acceptance suite and the benchmark check at
    assert _assert_entails_agrees(e, registry, Bound(4, 6))[0] is valid


# A sorted list over one-field cells: the order source m1 is no head field,
# so every nonempty step chooses its value among the data hint.
LSX = """\
data c1 { c1 next; }

pred lsx(root r, seg F, src mi, tgt ma) :=
     emp /\\ r=F /\\ mi=ma
  \\/ exists X, m1. r->c1(X) * lsx(X, F, m1, ma) /\\ r!=F /\\ mi<=m1;
"""


@pytest.mark.parametrize(
    "sequent",
    [
        "lsx(x, null, mi, ma) |- lsx(x, null, mi, ma) /\\ mi<=ma",
        "x->c1(y) * y->c1(null) |- lsx(x, null, 1, 2)",
        "lsx(x, y, 0, 2) * y->c1(null) |- lsx(x, null, 0, 2)",
        "lsx(x, y, a, b) * lsx(y, null, b, c) |- lsx(x, null, a, c)",
    ],
)
def test_unbound_existential_agrees_with_reference(sequent):
    pf = parse_native(LSX + f"\ncheck {sequent}\n")
    assert oracle._bindings(pf.registry.preds["lsx"])[1] == ("m1",)
    models = _assert_agrees(pf.query, pf.registry, SMALL)
    assert models
    assert any(ref_holds(m, pf.query.rhs, pf.registry, SMALL) for m in models)


# ------------------------------------------------------- edge cases of the cover


w = Var("w")
_ONE_C4 = HeapModel({"x": 1, "y": 0, "a": 2}, {1: Cell("c4", (0, 3))}, frozenset("xy"))
_NO_CELLS = HeapModel({"x": 0, "y": 0, "a": 2}, {}, frozenset("xy"))
_INT_IN_PTR = "integer literal 1 in pointer position"
_NULL_IN_ARITH = "null in arithmetic position"


@pytest.mark.parametrize(
    "spatial,pure,model,outcome",
    [
        # an integer literal in pointer position
        ([], [PtrEq(x, IntLit(1))], _NO_CELLS, ("OracleError", _INT_IN_PTR)),
        ([PointsTo(IntLit(1), "c4", (NULL, a_))], [], _ONE_C4, ("OracleError", _INT_IN_PTR)),
        ([PredOcc("ll", (IntLit(1), NULL))], [], _NO_CELLS, ("OracleError", _INT_IN_PTR)),
        # null in arithmetic position
        ([], [ArithLeq(NULL, a_)], _NO_CELLS, ("OracleError", _NULL_IN_ARITH)),
        # a wrong-kind constant in a right-side cell, raised once reached
        ([PointsTo(x, "c4", (NULL, NULL))], [], _ONE_C4, ("OracleError", _NULL_IN_ARITH)),
        ([PointsTo(x, "c4", (IntLit(1), a_))], [], _ONE_C4, ("OracleError", _INT_IN_PTR)),
        ([PointsTo(x, "c4", (x, NULL))], [], _ONE_C4, False),
        # a wrong-kind constant in a predicate argument: the segment and the
        # order pair are read on the empty branch, the rest on a nonempty step
        ([PredOcc("ll", (x, IntLit(1)))], [], _NO_CELLS, ("OracleError", _INT_IN_PTR)),
        ([PredOcc("lls", (x, NULL, NULL, a_))], [], _NO_CELLS, ("OracleError", _NULL_IN_ARITH)),
        ([PredOcc("llb", (x, NULL, NULL))], [], _ONE_C4, ("OracleError", _NULL_IN_ARITH)),
        ([PredOcc("llb", (x, NULL, NULL))], [], _NO_CELLS, True),
        # an unbound variable
        ([], [PtrNeq(x, w)], _NO_CELLS, ("OracleError", "unbound variable w")),
        ([PointsTo(x, "c4", (w, a_))], [], _ONE_C4, ("OracleError", "unbound variable w")),
        ([PredOcc("ll", (x, w))], [], _NO_CELLS, ("OracleError", "unbound variable w")),
        ([PredOcc("llb", (x, NULL, w))], [], _ONE_C4, ("OracleError", "unbound variable w")),
        ([], [PtrEq(x, y), PtrNeq(x, w)], _ONE_C4, False),
        # root equal to segment: the empty branch leaves the rest unread
        ([PredOcc("llb", (x, x, w))], [], _NO_CELLS, True),
        ([PredOcc("llb", (x, x, w))], [], _ONE_C4, False),
        ([PredOcc("lls", (x, x, w, a_))], [], _NO_CELLS, ("OracleError", "unbound variable w")),
    ],
)
def test_cover_edge_cases_agree_with_reference(registry, spatial, pure, model, outcome):
    h = heap(spatial, pure)
    assert _outcome(lambda: holds(model, h, registry)) == outcome
    assert _outcome(lambda: ref_holds(model, h, registry)) == outcome


def test_wrong_kind_constant_in_a_premise_cell_raises(registry):
    h = heap([PointsTo(x, "c4", (IntLit(1), a_))])
    want = _outcome(lambda: list(ref_models_of(h, registry, SMALL)))
    assert want == ("OracleError", _INT_IN_PTR)
    assert _outcome(lambda: list(models_of(h, registry, SMALL))) == want


# ----------------------------------------------- each model once, none kept


LSX_CONCAT = "lsx(x, y, a, b) * lsx(y, null, b, c) |- lsx(x, null, a, c)"


def _lsx_problem(sequent):
    pf = parse_native(LSX + f"\ncheck {sequent}\n")
    return pf.query, pf.registry


# A premise data variable against a literal, then null as an order target,
# read only once the cell has matched: the first model, d the least data
# value, is a countermodel, unless the data range starts at 3 and reading
# the target raises.
d_ = Var("d")
C4_NULL_TARGET = ent(
    heap([PointsTo(x, "c4", (NULL, d_))]),
    heap([PointsTo(x, "c4", (NULL, IntLit(3))), PredOcc("lls", (x, x, IntLit(1), NULL))]),
)

# A premise data variable in a pointer position of the conclusion: a pointer
# shape knows it only by name, so its walk cannot place the root. The first
# model, d the least data value, satisfies each conclusion; the second
# refutes it.
DATA_AS_ROOT = ent(
    heap([PointsTo(x, "c4", (NULL, d_))]),
    heap([PointsTo(x, "c4", (NULL, d_)), PredOcc("ll", (d_, x))]),
)
DATA_AS_CELL = ent(
    heap([PointsTo(x, "c4", (y, d_)), PointsTo(y, "c1", (NULL,))]),
    heap([PointsTo(x, "c4", (y, d_)), PointsTo(d_, "c1", (NULL,))]),
)

# A data variable first used before a pointer variable: a=2 takes the next
# fresh location, so y can be 2 or 3 after it. The conclusion reads y as
# data, so it tells the two apart: y=3 is the countermodel, while the
# pointer shapes enumerated without the data (y null or 2) satisfy it.
DATA_BEFORE_POINTER = ent(
    heap([PointsTo(x, "c1", (NULL,))], [ArithLeq(a_, IntLit(3)), PtrNeq(y, x)]),
    heap([PointsTo(x, "c1", (NULL,))], [ArithLeq(y, IntLit(2))]),
)


def _pointer_read_as_data():
    """The bundled definitions and q, a list segment whose nonempty step
    reads its pointer parameter p as data, in p<=2."""
    reg = make_registry()
    r, F, X, p = (Var(n) for n in ("r", "F", "X", "p"))
    q = InductiveDef(
        "q",
        (Param("r", Role.ROOT), Param("F", Role.SEG), Param("p", Role.BORDER)),
        RecBranch(
            exists=("X",),
            head=PointsTo(r, "c1", (X,)),
            matrix=(),
            rec=PredOcc("q", (X, F, p)),
            order=None,
            arith=(ArithLeq(p, IntLit(2)),),
        ),
    )
    return Registry(reg.sorts, {**reg.preds, "q": q})


# As DATA_BEFORE_POINTER, but the conclusion passes y at its pointer kind,
# and the definition reads it as data.
POINTER_READ_AS_DATA = (
    ent(DATA_BEFORE_POINTER.lhs, heap([PredOcc("q", (x, NULL, y))])),
    _pointer_read_as_data(),
)

# The unfoldings with an empty lls follow from c=2 and are skipped whole;
# the first with a cell in lls refutes c<=2.
SETTLED_THEN_REFUTED = parse_query(
    "lls(y, null, 2, c) * ll(x, null) |- llb(y, null, 2) * ll(x, null) /\\ c<=2"
)

# The empty unfolding satisfies the conclusion whatever b is; the next one
# reads the null border on a nonempty step and raises.
SETTLED_THEN_RAISES = ent(
    heap([PredOcc("llb", (x, NULL, b))], [ArithLeq(IntLit(0), b)]),
    heap([PredOcc("llb", (x, NULL, NULL))]),
)


@settings(max_examples=60, deadline=None)
@given(st.tuples(entailments(), st.just(make_registry())), st.just(SMALL), st.just(WIDE))
# lsx's order source ranges over every data value, which makes the wide
# range cost seconds here
@example(_lsx_problem(LSX_CONCAT), SMALL, None)
@example(_lsx_problem(LSX_CONCAT), Bound(3, 4, 0, 2), None)
@example((C4_NULL_TARGET, make_registry()), SMALL, WIDE)
@example((C4_NULL_TARGET, make_registry()), Bound(3, 3, 3, 4), WIDE)
@example((DATA_AS_ROOT, make_registry()), Bound(3, 3, 1, 3), WIDE)
@example((DATA_AS_CELL, make_registry()), Bound(3, 3, 2, 3), WIDE)
@example((DATA_BEFORE_POINTER, make_registry()), Bound(1, 3, 0, 3), WIDE)
@example(POINTER_READ_AS_DATA, Bound(1, 3, 0, 3), WIDE)
@example((SETTLED_THEN_REFUTED, make_registry()), SMALL, WIDE)
@example((SETTLED_THEN_RAISES, make_registry()), SMALL, WIDE)
def test_models_match_reference_key_for_key(problem, bound, wide):
    # The enumerator keeps no set across unfoldings, the reference keeps
    # one over all of them: equal sequences of distinct keys show that no
    # two unfoldings yield the same model. The entailment is checked again
    # at `wide`, where the models are too many to list.
    e, reg = problem
    for side in (e.lhs, e.rhs):
        got = _outcome(lambda: [m.key() for m in models_of(side, reg, bound)])
        assert got == _outcome(lambda: [m.key() for m in ref_models_of(side, reg, bound)])
        if isinstance(got, list):
            assert len(set(got)) == len(got)
    _assert_entails_agrees(e, reg, bound)
    if wide is not None:
        _assert_entails_agrees(e, reg, wide)


def test_data_on_the_next_fresh_location_widens_later_pointers(registry):
    # Two models that differ only in the name of y's dangling location
    # both come out
    bound = Bound(1, 3, 0, 3)
    stacks = [m.stack for m in models_of(DATA_BEFORE_POINTER.lhs, registry, bound)]
    assert {"a": 2, "x": 1, "y": 2} in stacks and {"a": 2, "x": 1, "y": 3} in stacks


def test_kinds_read_by_the_conclusion(registry):
    assert oracle._kinds_read(DATA_BEFORE_POINTER.rhs, registry) == {"x": "ptr", "y": "int"}
    e, reg = POINTER_READ_AS_DATA
    assert oracle._kinds_read(e.rhs, reg) is None
    assert oracle._kinds_read(heap([], [PtrEq(a_, x), ArithLeq(a_, b)]), registry) is None


def _settlements(monkeypatch):
    """The settlement pass's answers, one per unfolding it is asked about."""
    answers = []
    settled = oracle._settled
    monkeypatch.setattr(
        oracle, "_settled", lambda *args: (answers.append(settled(*args)), answers[-1])[1]
    )
    return answers


def test_settled_unfoldings_keep_the_first_countermodel_and_error(registry, monkeypatch):
    # The unfoldings the pass skips come before the one that refutes, or
    # raises; the outcome is the reference's, as the property checks.
    answers = _settlements(monkeypatch)
    v = oracle_entails(SETTLED_THEN_REFUTED, registry, SMALL)
    assert answers == [True] * 4 + [False]
    assert v.counter.stack == {"c": 3, "x": 0, "y": 1}
    answers.clear()
    with pytest.raises(OracleError, match=_NULL_IN_ARITH):
        oracle_entails(SETTLED_THEN_RAISES, registry, SMALL)
    assert answers == [True, False]


def test_dangling_shapes_settle_only_for_a_conclusion_read_at_premise_kinds(
    registry, monkeypatch
):
    # y can dangle in x->c1(null) /\ a<=3 /\ y!=x. A conclusion that reads
    # y as data, itself or in a definition, leaves the unfolding to the
    # model loop, which finds y=3; one that reads each variable at its
    # premise kind settles it.
    answers = _settlements(monkeypatch)
    bound = Bound(1, 3, 0, 3)
    for e, reg in [(DATA_BEFORE_POINTER, registry), POINTER_READ_AS_DATA]:
        assert oracle_entails(e, reg, bound).counter.stack == {"a": 2, "x": 1, "y": 3}
    e = ent(DATA_BEFORE_POINTER.lhs, heap([PointsTo(x, "c1", (NULL,))], [ArithLeq(a_, IntLit(3))]))
    assert oracle_entails(e, registry, bound).bounded_valid
    assert answers == [False, False, True]


def test_null_order_target_outcomes(registry):
    # the data comparison d=3 goes to the residual, and the shape's walk
    # stops at the null order target, so the unfolding does not settle and
    # every model is checked in full
    v = oracle_entails(C4_NULL_TARGET, registry, SMALL)
    assert not v.bounded_valid
    assert v.counter.stack == {"d": -1, "x": 1}
    with pytest.raises(OracleError, match=_NULL_IN_ARITH):
        oracle_entails(C4_NULL_TARGET, registry, Bound(3, 3, 3, 4))


def test_unshown_existential_models_are_told_apart():
    # lsx's m1 shows in no cell: 67,990 assignments make 3,310 models
    e, reg = _lsx_problem(LSX_CONCAT)
    keys = [m.key() for m in models_of(e.lhs, reg, Bound(4, 6))]
    assert len(keys) == len(set(keys)) == 3310


# ------------------------------------------------- the step, compiled in one stage
#
# Definitions once carried an oracle-only view of their nonempty step, built
# by `_cover_plan` below (then a method, hence `self`); the oracle now
# compiles its step straight from the recursive branch. The plan is kept
# verbatim as the reference the compiled steps must match.


class CoverPlan(NamedTuple):
    """How the oracle matches one nonempty step of a definition against a
    heap cell, fixed by the definition alone."""

    params: tuple[tuple[str, bool], ...]  # (name, is pointer) per parameter
    sort: str  # of the head cell
    # Per head field: its expression and the existential the cell's value
    # binds there, or None when the field is checked against the values
    # bound so far.
    head: tuple[tuple[Expr, Optional[str]], ...]
    unbound: tuple[str, ...]  # existentials no head field binds
    side: tuple[PureAtom, ...]  # order atom, then the arithmetic atoms
    pushed: tuple[PredOcc, ...]  # recursive occurrence, then the matrix reversed


def _cover_plan(self) -> CoverPlan:
    rb = self.rec
    bound = {p.name for p in self.params}
    ex = set(rb.exists)
    head: list[tuple[Expr, Optional[str]]] = []
    for e in rb.head.fields:
        if isinstance(e, Var) and e.name in ex and e.name not in bound:
            bound.add(e.name)
            head.append((e, e.name))
        else:
            head.append((e, None))
    return CoverPlan(
        params=tuple((p.name, p.kind == "ptr") for p in self.params),
        sort=rb.head.sort,
        head=tuple(head),
        unbound=tuple(w for w in rb.exists if w not in bound),
        side=(() if rb.order is None else (rb.order,)) + rb.arith,
        pushed=(rb.rec,) + rb.matrix[::-1],
    )


_LSX_REGISTRY = parse_native(LSX + "\ncheck emp |- emp\n").registry


def _readable_registries():
    """(name, registry) of every bundled input the readers accept that
    defines a predicate."""
    data = Path(__file__).parent / "data"
    out = [("suite", make_registry()), ("LSX", _LSX_REGISTRY)]
    for path in sorted(data.glob("*.sep")) + sorted(data.glob("*.smt2")):
        read = parse_native if path.suffix == ".sep" else parse_slcomp
        try:
            reg = read(path.read_text()).registry
        except ValueError:
            continue  # outside the readers' fragment, such as wand.smt2
        if reg.preds:
            out.append((path.name, reg))
    return out


def _odd_heads_registry():
    """Definitions outside the template that `holds` still compiles: head
    cells with more and with fewer fields than their sort, an existential
    named like a parameter, one bound twice among the head fields, one in
    pure atoms only, and constants of both kinds among the head fields."""
    sorts = {"c2": SortDecl("c2", (("next", "c2"), ("val", "int")))}
    r, F, X, Y, d, u = (Var(n) for n in ("r", "F", "X", "Y", "d", "u"))
    params = (Param("r", Role.ROOT), Param("F", Role.SEG), Param("u", Role.BORDER, "int"))

    def define(name, exists, fields, arith=()):
        rb = RecBranch(
            exists=exists,
            head=PointsTo(r, "c2", fields),
            matrix=(),
            rec=PredOcc(name, (X, F, u)),
            order=None,
            arith=arith,
        )
        return InductiveDef(name, params, rb)

    preds = {
        "longer": define("longer", ("X", "d", "Y"), (X, d, Y)),
        "shorter": define("shorter", ("X", "d"), (X,), (ArithLeq(u, d),)),
        "shadow": define("shadow", ("X", "u"), (X, u)),
        "twice": define("twice", ("X",), (X, X)),
        "consts": define("consts", ("X", "d"), (IntLit(1), NULL), (ArithEq(d, u),)),
    }
    return Registry(sorts, preds)


_PLAN_REGISTRIES = _readable_registries() + [("odd-heads", _odd_heads_registry())]


@pytest.mark.parametrize(
    "reg", [reg for _, reg in _PLAN_REGISTRIES], ids=[name for name, _ in _PLAN_REGISTRIES]
)
def test_compiled_steps_match_the_cover_plan(reg):
    for d in reg.preds.values():
        plan = _cover_plan(d)
        steps = {}
        step = steps[d.name] = oracle._Step()
        oracle._compile_step(step, d, reg, steps)
        assert step.sort == plan.sort
        assert step.params == tuple(name for name, _ in plan.params)
        assert step.head == tuple(
            (name, None if name is not None else oracle._operand(e, ftype != "int"))
            for (_, ftype), (e, name) in zip(reg.sorts[plan.sort].fields, plan.head)
        )
        assert step.unbound == plan.unbound
        assert oracle._bindings(d) == ([name for _, name in plan.head], plan.unbound)
        assert step.side == tuple(oracle._compile(a) for a in plan.side)
        assert step.pushed == tuple(oracle._compile_atom(m, reg, steps) for m in plan.pushed)
        # parameter kinds: a constant argument compiles as its parameter's kind
        for const in (NULL, IntLit(1)):
            args = (Var("x"),) + (const,) * (len(d.params) - 1)
            occ = oracle._compile_atom(PredOcc(d.name, args), reg, steps)
            assert occ.args == tuple(
                e.name if type(e) is Var else oracle._operand(e, ptr)
                for (_, ptr), e in zip(plan.params, args)
            )


def test_odd_heads_bind_as_the_cover_plan_did():
    reg = _odd_heads_registry()
    unbound = {name: oracle._bindings(d)[1] for name, d in reg.preds.items()}
    assert unbound == {
        "longer": (),  # Y binds beyond the sort's two fields
        "shorter": ("d",),
        "shadow": (),  # u is the parameter
        "twice": (),
        "consts": ("X", "d"),
    }
    # Y is bound, but the cover reads only the sort's fields
    model = HeapModel({"x": 1, "y": 0, "a": 2}, {1: Cell("c2", (0, 5))}, frozenset("xy"))
    assert holds(model, heap([PredOcc("longer", (x, y, a_))]), reg, SMALL)


_TERMS = [Var(n) for n in ("r", "F", "u", "X", "Y", "m")] + [NULL, IntLit(0)]


@st.composite
def definitions(draw):
    """A definition over one sort with a registry holding both, template
    or not: any roles, names, existentials, head arity and head terms. The
    recursive occurrence has one argument per parameter, which
    `_existential_kinds` reads for the inner order source."""
    names = [t.name for t in _TERMS if type(t) is Var]
    kinds = draw(st.lists(st.sampled_from(("c", "int")), min_size=1, max_size=3))
    sort = SortDecl("c", tuple((f"f{i}", k) for i, k in enumerate(kinds)))
    params = tuple(
        Param(draw(st.sampled_from(names)), role, draw(st.sampled_from(("ptr", "int"))))
        for role in draw(st.lists(st.sampled_from(list(Role)), min_size=1, max_size=4))
    )
    exists = tuple(draw(st.lists(st.sampled_from(names), max_size=4)))
    fields = tuple(draw(st.lists(st.sampled_from(_TERMS), max_size=4)))
    args = tuple(draw(st.sampled_from(_TERMS)) for _ in params)
    order = draw(
        st.one_of(st.none(), st.builds(ArithLeq, st.sampled_from(_TERMS), st.sampled_from(_TERMS)))
    )
    rb = RecBranch(exists, PointsTo(Var("r"), "c", fields), (), PredOcc("p", args), order, ())
    d = InductiveDef("p", params, rb)
    return d, Registry({"c": sort}, {"p": d})


@settings(max_examples=300, deadline=None)
@given(definitions())
@example((_LSX_REGISTRY.preds["lsx"], _LSX_REGISTRY))
def test_unbound_existentials_are_never_pointers(problem):
    # The oracle once raised "existential w not determined by head cell"
    # for an unbound existential that `_existential_kinds` called a pointer.
    # A head field names every existential it gives a kind, and the first
    # such field binds it unless a parameter has, so the error was dead.
    d, reg = problem
    plan = _cover_plan(d)
    assert oracle._bindings(d)[1] == plan.unbound
    kinds = _existential_kinds(d, reg)
    for w in plan.unbound:
        assert kinds.get(w, "int") == "int"
