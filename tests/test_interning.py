"""Interned terms and atoms: one object per live value, tables that stay
within about twice their live objects, copies and pickles that come back
as the live object, symmetric-atom hashes that stay spread out over
address hashes, and outputs that do not depend on where objects were
allocated."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import make_registry, parse_query
from sepent.engine import prove
from sepent.syntax import (
    _FIRST_SWEEP,
    _VARS,
    NULL,
    ArithEq,
    ArithLeq,
    IntLit,
    Null,
    PointsTo,
    PredOcc,
    PtrEq,
    PtrNeq,
    Var,
    _match_key,
    same_atom_mod_unfold,
)
from suite_cases import chain_sequent

ROOT = Path(__file__).resolve().parent.parent
x, y = Var("x"), Var("y")

# One value of each class, built twice below; `repr` as the dataclasses
# these classes once were printed them, which the parser parity checks
# compare.
SAMPLES = {
    "null": (lambda: Null(), "Null()"),
    "intlit": (lambda: IntLit(3), "IntLit(value=3)"),
    "ptreq": (lambda: PtrEq(y, NULL), "PtrEq(lhs=Var(name='y'), rhs=Null())"),
    "ptrneq": (lambda: PtrNeq(y, x), "PtrNeq(lhs=Var(name='y'), rhs=Var(name='x'))"),
    "ptrneq-swapped": (lambda: PtrNeq(x, y), "PtrNeq(lhs=Var(name='x'), rhs=Var(name='y'))"),
    "aritheq": (lambda: ArithEq(IntLit(1), y), "ArithEq(lhs=IntLit(value=1), rhs=Var(name='y'))"),
    "arithleq": (lambda: ArithLeq(x, IntLit(0)), "ArithLeq(lhs=Var(name='x'), rhs=IntLit(value=0))"),
    "pointsto": (
        lambda: PointsTo(x, "c2", (y, IntLit(2))),
        "PointsTo(root=Var(name='x'), sort='c2', fields=(Var(name='y'), IntLit(value=2)))",
    ),
    "predocc": (
        lambda: PredOcc("ll", (x, NULL), 2),
        "PredOcc(pred='ll', args=(Var(name='x'), Null()), unfold=2)",
    ),
}


def test_variable_table_is_bounded():
    kept = Var("kept")
    before = len(_VARS)
    for i in range(100_000):
        Var(f"throwaway{i}")
    assert len(_VARS) <= before + 10
    assert Var("kept") is kept


# A table of each class, and a value of that class built from an integer.
TABLES = {
    "intlit": (IntLit, IntLit),
    "ptreq": (PtrEq, lambda i: PtrEq(IntLit(i), NULL)),
    "ptrneq": (PtrNeq, lambda i: PtrNeq(x, IntLit(i))),
    "aritheq": (ArithEq, lambda i: ArithEq(IntLit(i), x)),
    "arithleq": (ArithLeq, lambda i: ArithLeq(x, IntLit(i))),
    "pointsto": (PointsTo, lambda i: PointsTo(x, "c1", (IntLit(i),))),
    "predocc": (PredOcc, lambda i: PredOcc("ll", (x, IntLit(i)), 1)),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_atom_table_is_bounded(name):
    cls, make = TABLES[name]
    kept = make(-1)
    live = sum(ref() is not None for ref in cls._table.values())
    for i in range(100_000):
        make(i)
    # swept once it has doubled since its last sweep
    assert len(cls._table) <= max(2 * (live + 2), _FIRST_SWEEP)
    assert make(-1) is kept


def test_variables_define_no_python_equality_or_hash():
    # identity equality and the address hash, both computed in C
    assert Var.__eq__ is object.__eq__ and Var.__hash__ is object.__hash__


@pytest.mark.parametrize("cls", [Null, IntLit, ArithLeq, PointsTo, PredOcc])
def test_asymmetric_terms_define_no_python_equality_or_hash(cls):
    assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_one_object_per_value(name):
    make, shown = SAMPLES[name]
    a = make()
    assert make() is a
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b is a
    assert copy.deepcopy([a, (a,)]) == [a, (a,)]
    assert repr(a) == shown
    with pytest.raises(AttributeError):
        a.lhs = x
    assert not hasattr(a, "__dict__")  # slots


def test_symmetric_atoms_keep_their_written_order():
    a, b = PtrNeq(x, y), PtrNeq(y, x)
    assert a is not b and a == b and hash(a) == hash(b)
    assert (str(a), str(b)) == ("x!=y", "y!=x")


def test_integer_literals_keep_their_type():
    # 1 == True, but they print apart
    one, true = IntLit(1), IntLit(True)
    assert one is not true and one != true
    assert (str(one), str(true)) == ("1", "True")
    assert IntLit(1) is one and IntLit(True) is true


def test_match_key_is_the_occurrence_without_its_unfolding():
    occ = PredOcc("ll", (x, NULL))
    assert occ.key is None and _match_key(occ) is occ
    for n in (1, 2):
        assert PredOcc("ll", (x, NULL), n).key is occ
        assert same_atom_mod_unfold(PredOcc("ll", (x, NULL), n), occ)
    cell = PointsTo(x, "c1", (NULL,))
    assert _match_key(cell) is cell
    assert not same_atom_mod_unfold(occ, PredOcc("ll", (x, y)))
    assert not same_atom_mod_unfold(cell, PointsTo(x, "c1", (y,)))


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
# "shift" it first allocates throwaway terms, atoms and other objects, so
# the terms and atoms of the proofs land at other addresses.
DIGEST = """
import hashlib, sys
if sys.argv[1:] == ["shift"]:
    from sepent.syntax import ArithLeq, IntLit, PointsTo, PredOcc, PtrNeq, Var
    junk = []
    for i in range(5000):
        v, n = Var(f"junk{i}"), IntLit(1000 + i)
        junk += [v, n, object(), PtrNeq(v, v), ArithLeq(n, v)]
        junk += [PointsTo(v, "c1", (v,)), PredOcc("ll", (v, v), i % 3)]
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
