"""Work counts that do not depend on the host.

The prover. A chain proof of n pieces has 16n - 1 nodes. Normalization
and the Inconsistency check read the left side alone, and a left side
that passed both keeps a record of it through the rules that keep it
whole, and into Star's premises. So both run at fewer nodes than the
proof has, and these counts pin how many. A change that runs either again
at every node fails here, whatever the machine. The back-link search
enumerates the unifiers of a spatial part onto itself once per proof,
and a count of its unifier searches pins that too.

The oracle. Over the suite, the settlement pass skips some unfoldings of
each premise whole, and every model of the others is checked with one
full `_holds` call. These counts pin how many unfoldings settle and that
no model is checked any other way. An unfolding whose atoms have no model
is neither settled nor searched.
"""

import contextlib
from unittest import mock

import pytest

from conftest import parse_query
from sepent import engine, oracle
from sepent.oracle import Bound
from suite_cases import SUITE, chain_sequent


def counted_prove(ent, reg, names=("normalize_step", "_base_pure")):
    """The proof, and the calls the search made to each of the `engine`
    functions `names`."""
    counts = dict.fromkeys(names, 0)

    def counting(name):
        real = getattr(engine, name)

        def call(*args):
            counts[name] += 1
            return real(*args)

        return call

    with contextlib.ExitStack() as patches:
        for name in names:
            patches.enter_context(mock.patch.object(engine, name, counting(name)))
        verdict = engine.prove(ent, reg)
    return verdict, counts


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_chain_settles_each_left_side_once(n, registry):
    verdict, counts = counted_prove(parse_query(chain_sequent(n)), registry)
    assert verdict.valid
    assert len(verdict.tree.nodes) == 16 * n - 1
    assert counts == {"normalize_step": 7 * n + 2, "_base_pure": 2 * n + 1}


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_chain_searches_each_self_link_once(n, registry):
    # a bud's spatial part often is its ancestor's, shared through
    # pure-only steps; its unifiers onto itself are searched once per proof
    verdict, counts = counted_prove(
        parse_query(chain_sequent(n)), registry, names=("_spatial_unifiers",)
    )
    assert verdict.valid
    assert counts == {"_spatial_unifiers": 11 * n - 9}


def counted_oracle(bound, reg):
    """Over the suite at `bound`: the answers `oracle._settled` gave, the
    models `oracle._assigned` yielded, and the calls to `oracle._holds`."""
    settled, assigned, holds = oracle._settled, oracle._assigned, oracle._holds
    answers = []
    counts = {"assigned": 0, "_holds": 0}

    def settling(*args):
        answers.append(settled(*args))
        return answers[-1]

    def assigning(*args):
        for item in assigned(*args):
            counts["assigned"] += 1
            yield item

    def holding(*args):
        counts["_holds"] += 1
        return holds(*args)

    with mock.patch.object(oracle, "_settled", settling), mock.patch.object(
        oracle, "_assigned", assigning
    ), mock.patch.object(oracle, "_holds", holding):
        for _, sequent, _ in SUITE:
            oracle.oracle_entails(parse_query(sequent), reg, bound)
    return answers.count(True), answers.count(False), counts


@pytest.mark.parametrize(
    "bound,settled,unsettled,models",
    [(Bound(4, 6), 51, 60, 69), (Bound(3, 3, -1, 3), 25, 45, 48)],
    ids=["acceptance", "small"],
)
def test_oracle_checks_each_unsettled_model_once(bound, settled, unsettled, models, registry):
    assert counted_oracle(bound, registry) == (
        settled,
        unsettled,
        {"assigned": models, "_holds": models},
    )


def test_refuted_premise_searches_no_unfolding(registry):
    # lls(x, null, 5, 2) /\ x!=null: each unfolding either sets x to null or
    # orders 5 below 2, so none is settled or searched, whatever the range
    sequent = next(s for name, s, _ in SUITE if name == "unsat_premise")
    calls = {"_settled": 0, "_assignments": 0}

    def counting(name):
        real = getattr(oracle, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    with mock.patch.object(oracle, "_settled", counting("_settled")), mock.patch.object(
        oracle, "_assignments", counting("_assignments")
    ):
        verdict = oracle.oracle_entails(parse_query(sequent), registry, Bound(4, 6, -30, 60))
    assert verdict.bounded_valid
    assert calls == {"_settled": 0, "_assignments": 0}
