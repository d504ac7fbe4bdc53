"""Work counts that do not depend on the host.

A chain proof of n pieces has 16n - 1 nodes. Normalization and the
Inconsistency check read the left side alone, and a left side that passed
both keeps a record of it through the rules that keep it whole, and into
Star's premises. So both run at fewer nodes than the proof has, and these
counts pin how many. A change that runs either again at every node fails
here, whatever the machine.
"""

from unittest import mock

import pytest

from conftest import parse_query
from sepent import engine
from suite_cases import chain_sequent


def counted_prove(ent, reg):
    """The proof, and the calls the search made to `engine.normalize_step`
    and `engine._base_pure`."""
    counts = {"normalize_step": 0, "_base_pure": 0}

    def counting(name):
        real = getattr(engine, name)

        def call(*args):
            counts[name] += 1
            return real(*args)

        return call

    with mock.patch.object(
        engine, "normalize_step", counting("normalize_step")
    ), mock.patch.object(engine, "_base_pure", counting("_base_pure")):
        verdict = engine.prove(ent, reg)
    return verdict, counts


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_chain_settles_each_left_side_once(n, registry):
    verdict, counts = counted_prove(parse_query(chain_sequent(n)), registry)
    assert verdict.valid
    assert len(verdict.tree.nodes) == 16 * n - 1
    assert counts == {"normalize_step": 7 * n + 2, "_base_pure": 2 * n + 1}
