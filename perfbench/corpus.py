"""Benchmark inputs: the chain family, the hand-labelled suite, and a seeded
corpus of problem files for the CLI batch.

Everything here is built from the repository's test fixtures
(`tests/suite_cases.py`, the native corpus in `tests/conftest.py` and the
files under `tests/data`) plus a seeded random generator.  Nothing here
times anything or calls the prover.
"""

from __future__ import annotations

import ast
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"

# Chain lengths for the `chain` workload: rising into the range where proof
# time grows about n**4 while the tree grows about n**2.
CHAIN_NS = (6, 8, 10, 12, 14, 16)

# Generated entailments per batch round: the seeded part follows --seed, the
# fixed part is drawn with FIXED_SEED whatever the seed, so its failures
# repeat exactly in every run.
SEEDED_COUNT = 320
FIXED_COUNT = 80
FIXED_SEED = 11

_PTR_VARS = ("x", "y", "z", "w", "v")
_INT_VARS = ("a", "b", "c")
_LITERALS = ("0", "1", "2", "3")


def native_corpus() -> str:
    """The bundled sorts and definitions in native syntax, read from the test
    fixtures without importing them (they import pytest)."""
    tree = ast.parse((TESTS / "conftest.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "NATIVE_CORPUS"
        ):
            return ast.literal_eval(node.value)
    raise LookupError("NATIVE_CORPUS not found in tests/conftest.py")


def _suite_module():
    ns: dict = {}
    path = TESTS / "suite_cases.py"
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), ns)
    return ns


def suite_cases() -> list[tuple[str, str, bool]]:
    """The 40 hand-labelled cases as (name, sequent, valid)."""
    return list(_suite_module()["SUITE"])


def chain_sequents() -> list[tuple[int, str]]:
    chain = _suite_module()["chain_sequent"]
    return [(n, chain(n)) for n in CHAIN_NS]


# ------------------------------------------------------------ declarations


@dataclass(frozen=True)
class Signatures:
    """Argument kinds ('p' pointer, 'i' integer) of every bundled predicate
    and cell sort, the declaration text of each, and what each needs."""

    preds: dict[str, str]
    sorts: dict[str, str]
    blocks: dict[str, str]
    needs: dict[str, frozenset[str]]
    order: tuple[str, ...]


def signatures(corpus: str, registry) -> Signatures:
    """Read kinds and dependencies off a parsed registry of the corpus and
    cut the corpus text into one declaration block per name."""
    blocks: dict[str, str] = {}
    for m in re.finditer(r"^data (\w+) \{[^}]*\}$", corpus, re.M):
        blocks[m.group(1)] = m.group(0)
    for m in re.finditer(r"^pred (\w+)\(.*?;$", corpus, re.M | re.S):
        blocks[m.group(1)] = m.group(0)
    order = tuple(sorted(blocks, key=lambda n: corpus.index(blocks[n])))
    sorts = {
        s.name: "".join("i" if t == "int" else "p" for _, t in s.fields)
        for s in registry.sorts.values()
    }
    preds = {
        d.name: "".join("i" if p.kind == "int" else "p" for p in d.params)
        for d in registry.preds.values()
    }
    needs: dict[str, frozenset[str]] = {}
    for s in registry.sorts.values():
        needs[s.name] = frozenset(t for _, t in s.fields if t != "int")
    for d in registry.preds.values():
        rb = d.rec
        needs[d.name] = frozenset(
            {rb.head.sort, rb.rec.pred, *(m.pred for m in rb.matrix)}
        )
    return Signatures(preds, sorts, blocks, needs, order)


def declarations(sig: Signatures, used: set[str]) -> str:
    """Declaration text for the names used and everything they depend on."""
    todo, seen = list(used), set()
    while todo:
        n = todo.pop()
        if n not in seen:
            seen.add(n)
            todo.extend(sig.needs[n])
    return "\n\n".join(sig.blocks[n] for n in sig.order if n in seen)


def native_file(sig: Signatures, sequent: str, expect: Optional[str] = None) -> str:
    used = set(re.findall(r"(\w+)\(", sequent)) & set(sig.blocks)
    used |= set(re.findall(r"->(\w+)\(", sequent))
    text = declarations(sig, used) + f"\n\ncheck {sequent}\n"
    if expect is not None:
        text += f"expect {expect}\n"
    return text


# -------------------------------------------------------------- generator


def generate(sig: Signatures, seed: int, count: int, anchored: bool) -> list[str]:
    """Seeded random entailments over every bundled predicate and cell sort.

    Premises have one to three spatial atoms and up to two pure atoms;
    conclusions have up to two spatial atoms and one pure atom, over the
    premise's variables only.  The k-th entailment's first atom cycles
    through all predicates and sorts, so every one is covered.

    With `anchored`, every variable also gets a disequality (pointers) or an
    inequality (integers) in the premise.  Normalization and the rules never
    drop such atoms, so no variable of the input can vanish from the left
    side of a proof node; that is the condition both faults the fixed part
    exposes need (see README.md).
    """
    rng = random.Random(seed)
    kinds = sorted(sig.preds) + sorted(sig.sorts)
    return [_entailment(sig, rng, kinds[k % len(kinds)], anchored) for k in range(count)]


def _atom(sig: Signatures, rng: random.Random, name: str, ptrs, ints, null_p: float) -> str:
    def ptr() -> str:
        return "null" if rng.random() < null_p else rng.choice(ptrs)

    def num() -> str:
        return rng.choice(ints) if ints and rng.random() < 0.7 else rng.choice(_LITERALS)

    if name in sig.preds:
        kinds = sig.preds[name]
        args = [rng.choice(ptrs)] + [ptr() if k == "p" else num() for k in kinds[1:]]
        return f"{name}({', '.join(args)})"
    fields = [ptr() if k == "p" else num() for k in sig.sorts[name]]
    return f"{rng.choice(ptrs)}->{name}({', '.join(fields)})"


def _pure(rng: random.Random, ptrs: list[str], ints: list[str]) -> str:
    if ints and (not ptrs or rng.random() < 0.4):
        a = rng.choice(ints)
        b = rng.choice([i for i in ints if i != a] + list(_LITERALS))
        return f"{a}{rng.choice(('<=', '='))}{b}"
    a = rng.choice(ptrs)
    b = rng.choice([p for p in ptrs if p != a] + ["null"])
    return f"{a}{rng.choice(('!=', '='))}{b}"


def _vars_of(text: str, pool) -> list[str]:
    found = set(re.findall(r"\b[a-z]\w*\b", text))
    return [v for v in pool if v in found]


def _entailment(sig: Signatures, rng: random.Random, first: str, anchored: bool) -> str:
    names = sorted(sig.preds) + sorted(sig.sorts)
    spatial = [_atom(sig, rng, first, list(_PTR_VARS), list(_INT_VARS), 0.25)]
    spatial += [
        _atom(sig, rng, rng.choice(names), list(_PTR_VARS), list(_INT_VARS), 0.25)
        for _ in range(rng.choice((0, 1, 1, 2)))
    ]
    ptrs = _vars_of(" ".join(spatial), _PTR_VARS)
    ints = _vars_of(" ".join(spatial), _INT_VARS)
    pure = [_pure(rng, ptrs, ints) for _ in range(rng.choice((0, 1, 1, 2)))]

    rhs_spatial = [
        _atom(sig, rng, rng.choice(names), ptrs, ints, 0.3)
        for _ in range(rng.choice((0, 1, 1, 2)))
    ]
    rhs_pure = [_pure(rng, ptrs, ints) for _ in range(rng.choice((0, 0, 1)))]

    if anchored:
        for v in ptrs:
            pure.append(f"{v}!={rng.choice([p for p in ptrs if p != v] + ['null'])}")
        for i in ints:
            lit = rng.choice(_LITERALS)
            pure.append(f"{i}<={lit}" if rng.random() < 0.5 else f"{lit}<={i}")

    def heap(sp: list[str], pu: list[str]) -> str:
        text = " * ".join(sp) or "emp"
        return text + "".join(f" /\\ {p}" for p in pu)

    return f"{heap(spatial, pure)} |- {heap(rhs_spatial, rhs_pure)}"


# ------------------------------------------------------------------ batch


@dataclass(frozen=True)
class Problem:
    """One batch file: its name, text, and where its reference comes from:
    'label' (hand label in the file), 'oracle' (bounded oracle, computed
    by the benchmark) or 'unsupported' (outside the input fragment)."""

    name: str
    text: str
    reference: str


# Constructs the README lists as outside the supported SMT-LIB subset.
_UNSUPPORTED = re.compile(r"\((wand|forall|declare-fun)\b")


def batch_problems(sig: Signatures, seed: int) -> list[Problem]:
    """The batch corpus in a seeded order: seeded and fixed generated
    entailments, the 40 suite cases, and the tests/data files."""
    out: list[Problem] = []
    for tag, ents in (
        ("gen", generate(sig, seed, SEEDED_COUNT, anchored=True)),
        ("fixed", generate(sig, FIXED_SEED, FIXED_COUNT, anchored=False)),
    ):
        for k, s in enumerate(ents):
            out.append(Problem(f"{tag}_{k:03d}.sep", native_file(sig, s), "oracle"))
    for name, s, valid in suite_cases():
        text = native_file(sig, s, "valid" if valid else "invalid")
        out.append(Problem(f"suite_{name}.sep", text, "label"))
    for path in sorted((TESTS / "data").iterdir()):
        if path.suffix in (".sep", ".smt2"):
            text = path.read_text(encoding="utf-8")
            ref = "unsupported" if _UNSUPPORTED.search(text) else "label"
            out.append(Problem(f"data_{path.name}", text, ref))
    random.Random(seed).shuffle(out)
    return out


def expected_label(p: Problem) -> Optional[str]:
    """'valid' or 'invalid' from an `expect` line or an SMT-LIB status."""
    m = re.search(r"^expect (valid|invalid)\s*$", p.text, re.M)
    if m:
        return m.group(1)
    m = re.search(r":status (unsat|sat)\b", p.text)
    if m:
        return "valid" if m.group(1) == "unsat" else "invalid"
    return None


def write_batch(problems: list[Problem], where: Path) -> list[Path]:
    where.mkdir(parents=True, exist_ok=True)
    paths = []
    for p in problems:
        path = where / p.name
        path.write_text(p.text, encoding="utf-8")
        paths.append(path)
    return paths
