"""Proof tree serialization: indented text and Graphviz dot.

Both renderings visit nodes in identical order (children as stored, which
is the order the search created them), so equal trees produce identical
bytes.  Back-links appear as `~~> e<companion> via [t/s, ...]` in text and
as dashed edges in dot, with the renaming printed target-over-source the
way proof figures annotate them.
"""

from __future__ import annotations

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


def _preorder(tree: ProofTree) -> Iterator[tuple[ProofNode, int]]:
    """Nodes in export order with their depth; a loop, so proof depth sets
    no recursion limit."""
    stack = [(tree.root, 0)]
    while stack:
        nid, depth = stack.pop()
        n = tree.node(nid)
        yield n, depth
        stack.extend((c, depth + 1) for c in reversed(n.children))


def _text(tree: ProofTree) -> str:
    lines = []
    for n, depth in _preorder(tree):
        rule = f"[{n.edge.rule}] " if n.edge is not None else ""
        lines.append("  " * depth + f"{rule}e{n.id}: {n.ent}{_suffix(n)}")
    return "\n".join(lines) + "\n"


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(tree: ProofTree) -> str:
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


def export_proof(tree: ProofTree, fmt: str = "text") -> str:
    if fmt == "text":
        return _text(tree)
    if fmt == "dot":
        return _dot(tree)
    raise ValueError(f"unknown proof format {fmt!r}")
