"""Proof export: indented text and Graphviz forms, byte-deterministic."""

import re

import pytest
from hypothesis import given, settings

from conftest import entailments, make_registry, parse_query
from sepent.engine import Edge, ProofTree, ResourceLimit, UnsupportedFragment, prove
from sepent.export import export_proof
from sepent.syntax import EMP, NULL, Entailment, PtrNeq, SymbolicHeap, Var


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


# ------------------------------------------------------- reference renderings
#
# The text and dot renderings as they were before node labels reused their
# parent's pure text: every label prints the whole entailment.


def _sigma_text(sigma):
    return "[" + ", ".join(f"{t}/{s}" for s, t in sorted(sigma.items())) + "]"


def _suffix(n):
    if n.axiom is not None:
        return f" ({n.axiom})"
    if n.status == "invalid":
        return f" (stuck {n.case})"
    if n.status == "bud":
        assert n.companion is not None and n.sigma is not None
        return f" ~~> e{n.companion} via {_sigma_text(n.sigma)}"
    return ""


def _preorder(tree):
    """Nodes in export order with their depth; a loop, so proof depth sets
    no recursion limit."""
    stack = [(tree.root, 0)]
    while stack:
        nid, depth = stack.pop()
        n = tree.node(nid)
        yield n, depth
        stack.extend((c, depth + 1) for c in reversed(n.children))


def reference_text(tree):
    lines = []
    for n, depth in _preorder(tree):
        rule = f"[{n.edge.rule}] " if n.edge is not None else ""
        lines.append("  " * depth + f"{rule}e{n.id}: {n.ent}{_suffix(n)}")
    return "\n".join(lines) + "\n"


def _quote(s):
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def reference_dot(tree):
    lines = [
        "digraph proof {",
        "  rankdir=TB;",
        '  node [shape=box, fontname="monospace"];',
    ]
    order = [n for n, _ in _preorder(tree)]
    for n in order:
        lines.append(f"  e{n.id} [label={_quote(f'e{n.id}: {n.ent}{_suffix(n)}')}];")
    for n in order:
        for c in n.children:
            lines.append(f"  e{n.id} -> e{c} [label={_quote(tree.node(c).edge.rule)}];")
    for comp, bud, sigma in tree.backlinks():
        lines.append(
            f"  e{bud} -> e{comp} [style=dashed, label={_quote(_sigma_text(sigma))}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def assert_matches_reference(tree):
    assert export_proof(tree, "text") == reference_text(tree)
    assert export_proof(tree, "dot") == reference_dot(tree)


def test_suite_and_chain_exports_match_reference(reg):
    from suite_cases import SUITE, chain_sequent

    sequents = [s for _, s, _ in SUITE] + [chain_sequent(n) for n in range(1, 17)]
    for sequent in sequents:
        assert_matches_reference(proof_of(sequent, reg))


@given(entailments())
@settings(max_examples=100, deadline=None)
def test_generated_exports_match_reference(e):
    try:
        tree = prove(e, make_registry(), node_budget=3000).tree
    except (UnsupportedFragment, ResourceLimit):
        return
    assert_matches_reference(tree)


def test_pure_text_follows_the_parent_only_on_the_same_atoms(reg):
    # A child whose pure part equals its parent's in value but not in
    # order prints its own atoms: x!=y and y!=x are equal atoms.
    x, y = Var("x"), Var("y")
    parent = Entailment(SymbolicHeap((), (PtrNeq(x, y),)), EMP)
    swapped = SymbolicHeap((), (PtrNeq(y, x), PtrNeq(x, NULL)))
    grown = SymbolicHeap((), parent.lhs.pure + (PtrNeq(y, NULL),))
    tree = ProofTree.new(parent)
    tree.add(Entailment(swapped, EMP), 0, Edge("NeqNull", ()))
    tree.add(Entailment(grown, EMP), 0, Edge("NeqNull", ()))
    tree.add(Entailment(EMP, EMP), 2, Edge("=L", ()))
    assert_matches_reference(tree)
    assert "e1: emp /\\ y!=x /\\ x!=null |- emp" in export_proof(tree, "text")


def test_equal_atoms_at_different_nodes_print_as_written(reg):
    # x!=y and y!=x are equal atoms: each atom's text is kept by the atom
    # object, so neither node prints the other's
    x, y = Var("x"), Var("y")
    first, second = PtrNeq(x, y), PtrNeq(y, x)

    def node(*pure):
        return Entailment(SymbolicHeap((), pure), EMP)

    tree = ProofTree.new(node(first, PtrNeq(x, NULL)))
    tree.add(node(second, PtrNeq(y, NULL)), 0, Edge("Subst", ()))
    tree.add(node(PtrNeq(x, NULL), first), 1, Edge("Subst", ()))
    text = export_proof(tree, "text")
    assert text == (
        "e0: emp /\\ x!=y /\\ x!=null |- emp\n"
        "  [Subst] e1: emp /\\ y!=x /\\ y!=null |- emp\n"
        "    [Subst] e2: emp /\\ x!=null /\\ x!=y |- emp\n"
    )
    assert_matches_reference(tree)
