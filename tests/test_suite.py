"""Curated suite: engine and bounded oracle must agree on every case,
refutations must carry a confirmed countermodel, and emitted proofs must
pass the global soundness check."""

import pytest

from conftest import make_registry, parse_query
from sepent.certify import check_cyclic_soundness
from sepent.engine import prove
from sepent.oracle import Bound, confirm_countermodel, oracle_entails
from suite_cases import SUITE, chain_sequent

BOUND = Bound(max_unfold=4, max_locs=6)


@pytest.fixture(scope="module")
def reg():
    return make_registry()


def lhs_unfold_ceiling(tree):
    return max(
        (
            a.unfold
            for n in tree.nodes.values()
            for a in n.ent.lhs.spatial
            if hasattr(a, "unfold")
        ),
        default=0,
    )


@pytest.mark.parametrize(
    "sequent,valid",
    [c[1:] for c in SUITE],
    ids=[c[0] for c in SUITE],
)
def test_case(sequent, valid, reg):
    ent = parse_query(sequent)
    verdict = prove(ent, reg)
    assert verdict.valid == valid, f"engine verdict on {sequent}"

    report = oracle_entails(ent, reg, BOUND)
    assert report.bounded_valid == valid, f"oracle verdict on {sequent}"

    assert lhs_unfold_ceiling(verdict.tree) <= 2

    if valid:
        assert check_cyclic_soundness(verdict.tree, reg) == []
    else:
        model = verdict.counter or report.counter
        assert model is not None, "refutation without a countermodel"
        assert confirm_countermodel(model, ent, reg, BOUND)


class TestScalingFamily:
    @pytest.mark.parametrize("n,nodes", [(1, 13), (2, 30), (3, 47), (4, 63)])
    def test_chain_proofs_are_deterministic(self, n, nodes, reg):
        verdict = prove(parse_query(chain_sequent(n)), reg)
        assert verdict.valid
        assert len(verdict.tree.nodes) == nodes
        assert len(verdict.tree.backlinks()) == n
        assert check_cyclic_soundness(verdict.tree, reg) == []

    def test_suite_is_big_and_balanced(self):
        assert len(SUITE) >= 30
        valid = sum(1 for _, _, v in SUITE if v)
        assert abs(valid - (len(SUITE) - valid)) <= len(SUITE) // 5
