"""Proof tree serialization: indented text and Graphviz dot.

Both renderings visit nodes in identical order (children as stored, which
is the order the search created them), so equal trees produce identical
bytes.  Back-links appear as `~~> e<companion> via [t/s, ...]` in text and
as dashed edges in dot, with the renaming printed target-over-source the
way proof figures annotate them.
"""

from __future__ import annotations

from operator import is_
from typing import Iterator

from .engine import ProofNode, ProofTree


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

    A node's left pure part usually continues its parent's with the same
    atom objects, so its text continues the parent's text and only the
    new atoms are printed."""
    stack: list[tuple[int, int, tuple, str]] = [(tree.root, 0, (), "")]
    while stack:
        nid, depth, above, above_text = stack.pop()
        n = tree.node(nid)
        pure = n.ent.lhs.pure
        k = len(above)
        if pure is above:
            text = above_text
        elif 0 < k <= len(pure) and all(map(is_, above, pure)):
            text = "".join([above_text, *(f" /\\ {a}" for a in pure[k:])])
        else:
            text = " /\\ ".join(map(str, pure))
        yield n, depth, f"e{n.id}: {n.ent.pretty(True, text)}{_suffix(n)}"
        stack.extend((c, depth + 1, pure, text) for c in reversed(n.children))


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
