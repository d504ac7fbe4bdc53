"""Interned variables: one object per live name, a table that shrinks as
names die, symmetric-atom hashes that stay spread out over address
hashes, and outputs that do not depend on where objects were allocated."""

import os
import subprocess
import sys
from pathlib import Path

from conftest import make_registry, parse_query
from sepent.engine import prove
from sepent.syntax import _VARS, Var
from suite_cases import chain_sequent

ROOT = Path(__file__).resolve().parent.parent


def test_variable_table_is_bounded():
    kept = Var("kept")
    before = len(_VARS)
    for i in range(100_000):
        Var(f"throwaway{i}")
    assert len(_VARS) <= before + 10
    assert Var("kept") is kept


def test_variables_define_no_python_equality_or_hash():
    # identity equality and the address hash, both computed in C
    assert Var.__eq__ is object.__eq__ and Var.__hash__ is object.__hash__


def test_every_pure_part_has_distinct_atom_hashes():
    # With hash(kind) ^ hash(lhs) ^ hash(rhs) over address hashes, the
    # largest left pure part of this proof had 380 to 419 distinct hashes,
    # depending on the run, for 497 atoms.
    verdict = prove(parse_query(chain_sequent(30)), make_registry())
    assert verdict.valid
    for n in verdict.tree.nodes.values():
        for heap in (n.ent.lhs, n.ent.rhs):
            assert len({hash(a) for a in heap.pure}) == len(set(heap.pure))


# Prints one SHA-256 over the verdicts, stuck cases, countermodels and text
# and dot exports of the suite and chain_sequent(1..8). With the argument
# "shift" it first allocates throwaway variables and other objects, so the
# variables of the proofs land at other addresses.
DIGEST = """
import hashlib, sys
if sys.argv[1:] == ["shift"]:
    from sepent.syntax import Var
    junk = [(Var(f"junk{i}"), object()) for i in range(5000)]
from conftest import make_registry, parse_query
from sepent.engine import prove
from sepent.export import export_proof
from suite_cases import SUITE, chain_sequent

reg = make_registry()
h = hashlib.sha256()
for sequent in [s for _, s, _ in SUITE] + [chain_sequent(n) for n in range(1, 9)]:
    v = prove(parse_query(sequent), reg)
    h.update(f"{v.valid} {v.node} {v.case} {v.counter!r}\\n".encode())
    h.update(export_proof(v.tree, "text").encode())
    h.update(export_proof(v.tree, "dot").encode())
print(h.hexdigest())
"""


def test_outputs_do_not_depend_on_addresses():
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
    )
    digests = [
        subprocess.run(
            [sys.executable, "-c", DIGEST, *extra],
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        for extra in ([], ["shift"])
    ]
    assert len(digests[0]) == 65 and digests[0] == digests[1]
