"""Proof tree serialization: indented text and Graphviz dot.

Both renderings visit nodes in identical order (children as stored, which
is the order the search created them), so equal trees produce identical
bytes.  Back-links appear as `~~> e<companion> via [t/s, ...]` in text and
as dashed edges in dot, with the renaming printed target-over-source the
way proof figures annotate them.
"""

from __future__ import annotations

from operator import is_
from typing import Iterable, Iterator

from .engine import ProofNode, ProofTree
from .syntax import PureAtom


def _sigma_text(sigma: dict[str, str]) -> str:
    return "[" + ", ".join(f"{t}/{s}" for s, t in sorted(sigma.items())) + "]"


def _suffix(n: ProofNode) -> str:
    if n.axiom is not None:
        return f" ({n.axiom})"
    if n.status == "invalid":
        return f" (stuck {n.case})"
    if n.status == "bud":
        assert n.companion is not None and n.sigma is not None
        return f" ~~> e{n.companion} via {_sigma_text(n.sigma)}"
    return ""


def _preorder(tree: ProofTree) -> Iterator[tuple[ProofNode, int, str]]:
    """Nodes in export order with their depth and label; a loop, so proof
    depth sets no recursion limit.

    A node usually keeps its parent's spatial part and right side as the
    same objects, and continues its parent's left pure part with the same
    atom objects. Its label then reuses the parent's text of each and
    prints only the new pure atoms. A pure part built anew, as by a
    substitution, still holds mostly the same atom objects, so each atom's
    text is kept by the atom's identity and built once per export. Not by
    equality: `x!=y` and `y!=x` are equal atoms that print differently.
    The tree keeps every atom alive, so no identity is reused meanwhile."""
    texts: dict[int, str] = {}

    def text(atoms: Iterable[PureAtom]) -> Iterator[str]:
        for a in atoms:
            t = texts.get(id(a))
            if t is None:
                t = texts[id(a)] = str(a)
            yield t

    # each entry: a node, its depth, and its parent's spatial part, pure
    # part and right side with their texts
    stack: list[tuple] = [(tree.root, 0, None, (), None, "", "", "")]
    while stack:
        nid, depth, up_sp, up_pure, up_rhs, sp_text, pure_text, rhs_text = stack.pop()
        n = tree.node(nid)
        sp, pure, rhs = n.ent.lhs.spatial, n.ent.lhs.pure, n.ent.rhs
        if sp is not up_sp:
            sp_text = n.ent.lhs.spatial_text(True)
        k = len(up_pure)
        if pure is up_pure:
            pass
        elif 0 < k <= len(pure) and all(map(is_, up_pure, pure)):
            pure_text = " /\\ ".join((pure_text, *text(pure[k:])))
        else:
            pure_text = " /\\ ".join(text(pure))
        if rhs is not up_rhs:
            rhs_text = rhs.pretty()
        left = f"{sp_text} /\\ {pure_text}" if pure else sp_text
        yield n, depth, f"e{n.id}: {left} |- {rhs_text}{_suffix(n)}"
        stack.extend(
            (c, depth + 1, sp, pure, rhs, sp_text, pure_text, rhs_text)
            for c in reversed(n.children)
        )


def _text(tree: ProofTree) -> str:
    lines = []
    for n, depth, label in _preorder(tree):
        rule = f"[{n.edge.rule}] " if n.edge is not None else ""
        lines.append("  " * depth + rule + label)
    return "\n".join(lines) + "\n"


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(tree: ProofTree) -> str:
    lines = [
        "digraph proof {",
        "  rankdir=TB;",
        '  node [shape=box, fontname="monospace"];',
    ]
    order = []
    for n, _, label in _preorder(tree):
        order.append(n)
        lines.append(f"  e{n.id} [label={_quote(label)}];")
    for n in order:
        for c in n.children:
            lines.append(f"  e{n.id} -> e{c} [label={_quote(tree.node(c).edge.rule)}];")
    for comp, bud, sigma in tree.backlinks():
        lines.append(
            f"  e{bud} -> e{comp} [style=dashed, label={_quote(_sigma_text(sigma))}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_proof(tree: ProofTree, fmt: str = "text") -> str:
    if fmt == "text":
        return _text(tree)
    if fmt == "dot":
        return _dot(tree)
    raise ValueError(f"unknown proof format {fmt!r}")
