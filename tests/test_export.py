"""Proof export: indented text and Graphviz forms, byte-deterministic."""

import re

import pytest

from conftest import make_registry, parse_query
from sepent.engine import Edge, ProofTree, prove
from sepent.export import export_proof
from sepent.syntax import EMP, Entailment


@pytest.fixture(scope="module")
def reg():
    return make_registry()


def proof_of(sequent, reg):
    return prove(parse_query(sequent), reg).tree


GOLDEN_TEXT = """\
e0: lls(x, null, mi, ma)^0 /\\ x!=null |- llb(x, null, mi)
  [LInd] e1: x->c4(X#1, m1#2) * lls(X#1, null, m1#2, ma)^1 /\\ x!=null /\\ mi<=m1#2 |- llb(x, null, mi)
    [ExM] e2: x->c4(X#1, m1#2) * lls(X#1, null, m1#2, ma)^1 /\\ x!=null /\\ mi<=m1#2 /\\ X#1=null |- llb(x, null, mi)
      [Subst] e4: x->c4(null, m1#2) * lls(null, null, m1#2, ma)^1 /\\ x!=null /\\ mi<=m1#2 |- llb(x, null, mi)
        [LBase] e5: x->c4(null, ma) /\\ x!=null /\\ mi<=ma |- llb(x, null, mi)
          [RInd] e6: x->c4(null, ma) /\\ x!=null /\\ mi<=ma |- x->c4(null, ma) * llb(null, null, mi) /\\ x!=null /\\ mi<=ma
            [RBase] e7: x->c4(null, ma) /\\ x!=null /\\ mi<=ma |- x->c4(null, ma) /\\ x!=null /\\ mi<=ma (Id)
    [ExM] e3: x->c4(X#1, m1#2) * lls(X#1, null, m1#2, ma)^1 /\\ x!=null /\\ mi<=m1#2 /\\ X#1!=null |- llb(x, null, mi)
      [NeqStar] e8: x->c4(X#1, m1#2) * lls(X#1, null, m1#2, ma)^1 /\\ x!=null /\\ mi<=m1#2 /\\ X#1!=null /\\ x!=X#1 |- llb(x, null, mi)
        [RInd] e9: x->c4(X#1, m1#2) * lls(X#1, null, m1#2, ma)^1 /\\ x!=null /\\ mi<=m1#2 /\\ X#1!=null /\\ x!=X#1 |- x->c4(X#1, m1#2) * llb(X#1, null, mi) /\\ x!=null /\\ mi<=m1#2
          [Hypothesis] e10: x->c4(X#1, m1#2) * lls(X#1, null, m1#2, ma)^1 /\\ x!=null /\\ mi<=m1#2 /\\ X#1!=null /\\ x!=X#1 |- x->c4(X#1, m1#2) * llb(X#1, null, mi)
            [Star] e11: x->c4(X#1, m1#2) /\\ x!=null /\\ mi<=m1#2 /\\ X#1!=null /\\ x!=X#1 |- x->c4(X#1, m1#2) (Id)
            [Star] e12: lls(X#1, null, m1#2, ma)^1 /\\ x!=null /\\ mi<=m1#2 /\\ X#1!=null /\\ x!=X#1 |- llb(X#1, null, mi) ~~> e0 via [x/X#1, mi/m1#2]
"""

GOLDEN = "lls(x, null, mi, ma) /\\ x!=null |- llb(x, null, mi)"


class TestText:
    def test_golden_rendering(self, reg):
        assert export_proof(proof_of(GOLDEN, reg), "text") == GOLDEN_TEXT

    def test_single_axiom_proof(self, reg):
        out = export_proof(proof_of("emp |- emp", reg), "text")
        assert out == "e0: emp |- emp (Emp)\n"

    def test_stuck_leaf_is_annotated(self, reg):
        out = export_proof(proof_of("x->c1(null) |- x->ct(null, null)", reg), "text")
        assert "(stuck 2d)" in out

    def test_two_backlinks(self, reg):
        from suite_cases import chain_sequent

        out = export_proof(proof_of(chain_sequent(2), reg), "text")
        assert out.count("~~>") == 2


class TestDot:
    def test_golden_structure(self, reg):
        out = export_proof(proof_of(GOLDEN, reg), "dot")
        lines = out.splitlines()
        assert lines[0] == "digraph proof {"
        assert lines[-1] == "}"
        assert sum(1 for l in lines if re.match(r"^  e\d+ \[label=", l)) == 13
        solid = [l for l in lines if re.match(r"^  e\d+ -> e\d+ \[label=", l)]
        assert len(solid) == 12
        assert '  e12 -> e0 [style=dashed, label="[x/X#1, mi/m1#2]"];' in lines

    def test_escaping(self, reg):
        out = export_proof(proof_of(GOLDEN, reg), "dot")
        # every formula backslash is doubled inside the quoted label
        assert '/\\\\ x!=null' in out

    def test_single_node(self, reg):
        out = export_proof(proof_of("emp |- emp", reg), "dot")
        assert out.count("->") == 0
        assert out.count("label=") == 1


class TestDeepTree:
    DEPTH = 5000

    @pytest.fixture(scope="class")
    def tree(self):
        ent = Entailment(EMP, EMP)
        tree = ProofTree.new(ent)
        for nid in range(1, self.DEPTH):
            tree.add(ent, nid - 1, Edge("NeqNull", ()))
        leaf = tree.node(self.DEPTH - 1)
        leaf.status, leaf.axiom = "valid", "Emp"
        return tree

    def test_text(self, tree):
        lines = export_proof(tree, "text").splitlines()
        assert len(lines) == self.DEPTH
        assert lines[0] == "e0: emp |- emp"
        assert lines[-1] == "  " * 4999 + "[NeqNull] e4999: emp |- emp (Emp)"

    def test_dot(self, tree):
        lines = export_proof(tree, "dot").splitlines()
        assert len(lines) == 3 + self.DEPTH + (self.DEPTH - 1) + 1
        assert lines[3 + self.DEPTH - 1] == '  e4999 [label="e4999: emp |- emp (Emp)"];'
        assert lines[-2] == '  e4998 -> e4999 [label="NeqNull"];'


class TestDeterminism:
    def test_byte_identical_runs(self, reg):
        a = prove(parse_query(GOLDEN), reg).tree
        b = prove(parse_query(GOLDEN), reg).tree
        for fmt in ("text", "dot"):
            assert export_proof(a, fmt) == export_proof(b, fmt)

    def test_unknown_format_rejected(self, reg):
        with pytest.raises(ValueError):
            export_proof(proof_of("emp |- emp", reg), "svg")
