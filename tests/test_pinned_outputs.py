"""Pinned outputs: what the prover answers on four corpora, one SHA-256 each.

Per problem, in order, the digest takes the reader's expected status, the
verdict, the stuck node and its case, the countermodel as `pretty` prints
it, and the text and dot exports of the proof tree; a problem that cannot
be read or proved contributes its error instead. The corpora are the 40
suite cases, `chain_sequent(1..16)`, the files under `tests/data` read by
the reader their suffix selects, and 320 problem files of the benchmark's
seeded generator (`perfbench/corpus.py`, seed 101, anchored).

A change that keeps every output byte-identical keeps these digests. The
test computes them in fresh interpreters under `PYTHONHASHSEED` 0 and 1, so
no output may depend on string hashing or on the order of a set of terms.
To print the digests of the working tree:

    PYTHONPATH=src python tests/test_pinned_outputs.py
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PINNED = {
    "suite": "c9c6c6e0fafd9b228ac3fb1743221d1c5ea8addf2049d25e018ff4c938dac98a",
    "chain": "55a01f446cf27e7ed1960b2ef1e3485d5bfaf81e7f8d555da95a174e9bc2e104",
    "data": "18062c65e03b8c0f295a6e062260c925090f4b540475e24049269cbf57574b54",
    "generated": "258fc693d16082e9ccd0ea82bbf5ee4f9496ec9f8bf8c754d148a75c39640f2f",
}


def _outputs(read):
    """The pinned text of one problem; `read` returns its ProblemFile."""
    from sepent.engine import ResourceLimit, prove
    from sepent.export import export_proof

    try:
        pf = read()
        v = prove(pf.query, pf.registry)
    except (ValueError, ResourceLimit) as e:
        return f"error {type(e).__name__}: {e}"
    parts = [
        f"expect {pf.expect}",
        "VALID" if v.valid else f"INVALID at e{v.node} case {v.case}",
        v.counter.pretty(pf.registry) if v.counter is not None else "no countermodel",
        export_proof(v.tree, "text"),
        export_proof(v.tree, "dot"),
    ]
    return "\n".join(parts)


def _corpora():
    """Each corpus as a list of readers, one per problem."""
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]
    import corpus
    from sepent.parser import parse_native
    from sepent.slcomp import parse_slcomp
    from suite_cases import SUITE, chain_sequent

    text = corpus.native_corpus()

    def native(source):
        return lambda: parse_native(source)

    def from_file(path):
        parse = parse_slcomp if path.suffix == ".smt2" else parse_native
        return lambda: parse(path.read_text(encoding="utf-8"))

    sig = corpus.signatures(text, parse_native(text + "\ncheck emp |- emp\n").registry)
    return {
        "suite": [native(f"{text}\ncheck {s}\n") for _, s, _ in SUITE],
        "chain": [native(f"{text}\ncheck {chain_sequent(n)}\n") for n in range(1, 17)],
        "data": [from_file(p) for p in sorted((ROOT / "tests" / "data").iterdir())],
        "generated": [
            native(corpus.native_file(sig, s))
            for s in corpus.generate(sig, 101, 320, True)
        ],
    }


def digests():
    out = {}
    for name, readers in _corpora().items():
        h = hashlib.sha256()
        for read in readers:
            h.update(_outputs(read).encode("utf-8"))
            h.update(b"\0")
        out[name] = h.hexdigest()
    return out


def test_outputs_match_pinned_digests():
    runs = {}
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        runs[seed] = subprocess.Popen(
            [sys.executable, __file__], env=env, stdout=subprocess.PIPE, text=True
        )
    for seed, proc in runs.items():
        stdout, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0, f"PYTHONHASHSEED={seed}"
        assert json.loads(stdout) == PINNED, f"PYTHONHASHSEED={seed}"


if __name__ == "__main__":
    print(json.dumps(digests(), indent=2))
