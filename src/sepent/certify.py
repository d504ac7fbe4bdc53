"""Independent re-check of cyclic proofs.

A pre-proof closed by back-links is a proof when every cycle passes the
global trace condition: some predicate occurrence followed from the
companion down to the bud is unfolded on the way.  Nothing is taken from
the search: the checker walks the parent links itself, at most one step
per node, and re-derives each link's ancestry, renaming, atom map, pure
weakening and trace.  Imports only `syntax` and `defs`; of the engine's
tree it reads `nodes` and their fields.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

from .defs import Registry
from .syntax import (
    Entailment,
    Expr,
    PredOcc,
    Var,
    _match_identical,
    is_fresh_name,
    same_atom_mod_unfold,
    subst_pure,
)


def _link_conditions(bud: Entailment, comp: Entailment, sigma: dict[str, str]) -> bool:
    smap: dict[str, Expr] = {n: Var(t) for n, t in sigma.items()}
    img = bud.rhs.subst(smap)
    m = _match_identical(comp.rhs.spatial, img.spatial)
    if len(m) != len(img.spatial) or len(m) != len(comp.rhs.spatial):
        return False
    if frozenset(img.pure) != frozenset(comp.rhs.pure):
        return False
    # weakening: the renamed bud may know more pure facts, never fewer
    have = frozenset(subst_pure(bud.lhs.pure, smap))
    return all(a in have for a in comp.lhs.pure)


def _cycle(tree: Any, bud: Any) -> Union[str, list[Any]]:
    """The nodes strictly below the companion down to the bud, or what is
    wrong with the branch.  The walk goes up to the root, at most one step
    per node, so it meets any loop of parent links and cannot hang on it."""
    up = [bud]
    for _ in range(len(tree.nodes)):
        if up[-1].parent is None:
            break
        up.append(tree.nodes[up[-1].parent])
    else:
        return "parent links form a loop"
    ids = [n.id for n in up[1:]]
    if bud.companion not in ids:
        return f"companion {bud.companion} is not a strict ancestor"
    cycle = up[ids.index(bud.companion) :: -1]
    for n in cycle:
        if n.edge is None:
            return f"node {n.id} on the cycle has no edge"
    return cycle


def _trace_ok(path: Sequence[Any], start: int, goal: int) -> bool:
    """Follow one occurrence down the cycle: it must survive every step,
    land on the matched bud atom and pass at least one incrementing unfold."""
    j: Optional[int] = start
    progressed = False
    for edge in (node.edge for node in path):
        if j is None or not 0 <= j < len(edge.fwd):
            return False
        if j in edge.progressed:
            progressed = True
        j = edge.fwd[j]
    return j == goal and progressed


def check_cyclic_soundness(tree: Any, reg: Registry) -> list[str]:
    """Re-verify every back-link from scratch; an empty report means the
    pre-proof is a sound cyclic proof.  Nothing is trusted from the search:
    ancestry, the renaming, the pure weakening, and the existence of a
    progressing trace along the cycle are all established again."""
    problems = []
    for nid in sorted(tree.nodes):
        bud = tree.nodes[nid]
        if bud.status != "bud":
            continue

        def bad(msg: str) -> None:
            problems.append(f"bud {bud.id}: {msg}")

        if bud.companion is None or bud.sigma is None or bud.match is None:
            bad("missing companion, renaming, or atom map")
            continue
        path = _cycle(tree, bud)
        if isinstance(path, str):
            bad(path)
            continue
        comp = tree.nodes[bud.companion]
        if not all(is_fresh_name(n) for n in bud.sigma):
            bad("renaming touches an input variable")
            continue
        smap: dict[str, Expr] = {n: Var(t) for n, t in bud.sigma.items()}
        bl, cl = bud.ent.lhs.spatial, comp.ent.lhs.spatial
        if sorted(bud.match) != list(range(len(bl))) or sorted(
            bud.match.values()
        ) != list(range(len(cl))):
            bad("atom map is not a bijection")
            continue
        if not all(
            same_atom_mod_unfold(bl[i].subst(smap), cl[j])
            for i, j in bud.match.items()
        ):
            bad("left spatial parts differ under the renaming")
            continue
        if not _link_conditions(bud.ent, comp.ent, bud.sigma):
            bad("right side or pure weakening condition fails")
            continue
        prog = [
            i
            for i, j in sorted(bud.match.items())
            if isinstance(bl[i], PredOcc)
            and isinstance(cl[j], PredOcc)
            and bl[i].unfold > cl[j].unfold
        ]
        if not prog:
            bad("no occurrence is unfolded strictly more than its image")
            continue
        if not any(_trace_ok(path, bud.match[i], i) for i in prog):
            bad("no progressing trace follows the cycle")
    return problems
