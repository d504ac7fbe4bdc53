"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The shortened runs take about half a minute: a run always finishes at
least one whole round, and a chain round proves n up to 16.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import corpus  # noqa: E402
import tracer  # noqa: E402
from sepent.parser import parse_native  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def sig():
    text = corpus.native_corpus()
    return corpus.signatures(text, parse_native(text + "\ncheck emp |- emp\n").registry)


def test_same_seed_same_corpus(sig):
    assert corpus.batch_problems(sig, 7) == corpus.batch_problems(sig, 7)
    assert corpus.batch_problems(sig, 7) != corpus.batch_problems(sig, 8)


def test_generator_covers_every_predicate_sort_and_side(sig):
    ents = corpus.generate(sig, 3, corpus.SEEDED_COUNT, anchored=True)
    text = "\n".join(ents)
    for name in sig.preds:
        assert re.search(rf"\b{name}\(", text), name
    for name in sig.sorts:
        assert f"->{name}(" in text, name
    lhs_pure = rhs_pure = 0
    for e in ents:
        lhs, rhs = e.split(" |- ")
        lhs_pure += "/\\" in lhs
        rhs_pure += "/\\" in rhs
        names = lambda s: set(re.findall(r"\b[a-z]\w*\b(?!\()", s)) - {"null", "emp"}
        assert names(rhs) <= names(lhs), e
    assert lhs_pure and rhs_pure


def test_generated_files_parse(sig):
    for p in corpus.batch_problems(sig, 1):
        if p.name.endswith(".sep"):
            assert parse_native(p.text).query is not None, p.name


def test_self_time_of_nested_spans():
    S = tracer.Span
    spans = [
        S("a", 0.0, 10.0, None),
        S("b", 1.0, 4.0, 0),
        S("c", 2.0, 3.0, 1),
        S("b", 5.0, 7.0, 0),
        S("a", 12.0, 13.0, None),
    ]
    assert tracer.layer_times(spans) == {
        "a": (11.0, 6.0, 2),
        "b": (5.0, 4.0, 2),
        "c": (1.0, 1.0, 1),
    }


def test_wrapped_layer_is_not_entered_twice():
    ns = SimpleNamespace()
    ns.inner = lambda k: k
    ns.outer = lambda k: ns.outer(k - 1) if k else ns.inner(0)
    t = tracer.Tracer()
    t.wrap(ns, "outer", "outer")
    t.wrap(ns, "inner", "inner")
    ns.outer(3)
    t.restore()
    assert [(s.layer, s.parent) for s in t.spans] == [("outer", None), ("inner", 0)]
    assert ns.outer(2) == 0 and len(t.spans) == 2


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}
    for m in wanted:
        assert got[m["name"]]["unit"] == m["unit"]
    if workload == "batch":
        assert result["failed"] > 0  # the fixed part exposes the two faults
    else:
        assert result["failed"] == 0
    if workload == "chain" and trace:
        assert got["prove.attributed_share"]["value"] >= 0.95


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "chain", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
