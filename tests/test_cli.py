"""Command-line front end: verdict lines, exit codes, batch mode."""

import io
import subprocess
import sys
from pathlib import Path

import pytest

from sepent import cli
from sepent.cli import _arg_parser, run_cli

DATA = Path(__file__).parent / "data"


def run(*argv):
    out = io.StringIO()
    code = run_cli(list(argv), out=out)
    return code, out.getvalue().splitlines()


class TestSingleFile:
    def test_valid_with_oracle(self):
        code, lines = run(
            "--input", str(DATA / "golden.sep"), "--oracle-check"
        )
        assert code == 0
        assert lines[0] == "VALID"
        assert lines[1] == "ORACLE-AGREES"
        assert lines[2].startswith("proof: 13 nodes, 12 edges, 1 backlinks")

    def test_invalid_with_engine_witness(self):
        code, lines = run("--input", str(DATA / "cells.sep"))
        assert code == 0  # file expects invalid and the engine agrees
        assert lines[0] == "INVALID"
        assert any(l.startswith("stuck at e") and "(case 2d)" in l for l in lines)
        i = lines.index("countermodel:")
        assert lines[i + 1].startswith("stack:")
        assert any(l.lstrip().startswith("heap:") for l in lines[i + 1:])

    def test_oracle_supplies_witness_when_engine_has_none(self):
        code, lines = run(
            "--input", str(DATA / "list_tree.sep"), "--oracle-check"
        )
        assert code == 0
        assert lines[0] == "INVALID"
        assert lines[1] == "ORACLE-AGREES"
        assert "countermodel (oracle):" in lines

    def test_quiet_prints_verdict_only(self):
        code, lines = run("--input", str(DATA / "golden.sep"), "--quiet")
        assert (code, lines) == (0, ["VALID"])

    def test_quiet_with_oracle_prints_two_lines(self):
        code, lines = run(
            "--input", str(DATA / "golden.sep"), "--quiet", "--oracle-check"
        )
        assert (code, lines) == (0, ["VALID", "ORACLE-AGREES"])


class TestExitCodes:
    def test_expect_mismatch(self):
        code, lines = run(
            "--input", str(DATA / "golden.sep"), "--expect", "invalid"
        )
        assert code == 1
        assert lines[0] == "VALID"
        assert "expected invalid" in lines

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.sep"
        bad.write_text("check ll(x |- emp\n")
        assert run_cli(["--input", str(bad)], out=io.StringIO()) == 2
        assert "bad.sep" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run_cli(["--input", "nope.sep"], out=io.StringIO()) == 2
        assert "no such file" in capsys.readouterr().err

    def test_unsupported_construct(self, capsys):
        assert run_cli(
            ["--input", str(DATA / "wand.smt2")], out=io.StringIO()
        ) == 2
        assert "unsupported construct" in capsys.readouterr().err

    def test_node_budget_exhaustion(self, capsys):
        assert run_cli(
            ["--input", str(DATA / "golden.sep"), "--node-budget", "3"],
            out=io.StringIO(),
        ) == 3
        assert "3-node budget" in capsys.readouterr().err

    def test_memory_exhaustion(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "prove", exhausted)
        code, lines = run("--input", str(DATA / "golden.sep"))
        assert (code, lines) == (3, [])
        err = capsys.readouterr().err.splitlines()
        assert err == [f"sepent: {DATA / 'golden.sep'}: out of memory"]

    # A bound below its least value is refused while the arguments are
    # read, in single-file and batch mode alike, before any search.
    def refused(self, capsys, flag, value, least):
        for target in (DATA / "golden.sep", DATA):
            with pytest.raises(SystemExit) as e:
                run_cli(["--input", str(target), flag, value], out=io.StringIO())
            assert e.value.code == 2
            err = capsys.readouterr().err
            assert f"argument {flag}: must be at least {least}, got {value}" in err

    def test_node_budget_below_one(self, capsys):
        for value in ("0", "-5"):
            self.refused(capsys, "--node-budget", value, 1)

    def test_negative_oracle_depth(self, capsys):
        self.refused(capsys, "--oracle-depth", "-1", 0)

    def test_negative_oracle_locs(self, capsys):
        self.refused(capsys, "--oracle-locs", "-1", 0)

    def test_oracle_disagreement(self):
        # with zero locations the oracle sees no premise models at all and
        # vacuously calls the sequent valid; the engine's INVALID verdict
        # then fails cross-checking
        code, lines = run(
            "--input", str(DATA / "cells.sep"),
            "--oracle-check", "--oracle-locs", "0", "--quiet",
        )
        assert code == 4
        assert lines == ["INVALID", "ORACLE-DISAGREES"]

    # A list whose root is its second parameter. Before such definitions
    # were refused, the first query came out VALID although x->c1(null)
    # refutes it, and the second, valid one INVALID.
    ROOT_SECOND = (
        "data c1 { c1 next; }\n"
        "pred ll(seg F, root r) := emp /\\ r=F"
        " \\/ exists X. r->c1(X) * ll(F, X) /\\ r!=F;\n"
    )

    @pytest.mark.parametrize(
        "query",
        ["ll(null, x) |- emp", "x->c1(null) |- ll(null, x)"],
        ids=["invalid_query", "valid_query"],
    )
    def test_root_second_definition(self, query, tmp_path, capsys):
        src = tmp_path / "root_second.sep"
        src.write_text(self.ROOT_SECOND + f"check {query}\n")
        out = io.StringIO()
        assert run_cli(["--input", str(src), "--oracle-check"], out=out) == 2
        assert out.getvalue() == ""
        assert "ll: the root parameter must come first" in capsys.readouterr().err

    def test_format_override_wins_over_suffix(self, capsys):
        assert run_cli(
            ["--input", str(DATA / "golden.sep"), "--format", "slcomp"],
            out=io.StringIO(),
        ) == 2


class TestProofOutput:
    def test_text_file(self, tmp_path):
        target = tmp_path / "proof.txt"
        code, _ = run(
            "--input", str(DATA / "golden.sep"), "--proof-out", str(target)
        )
        assert code == 0
        text = target.read_text()
        assert text.startswith("e0: lls(x, null, mi, ma)^0")
        assert "~~> e0 via [x/X#1, mi/m1#2]" in text

    def test_dot_file(self, tmp_path):
        target = tmp_path / "proof.dot"
        code, _ = run(
            "--input", str(DATA / "golden.sep"),
            "--proof-out", str(target), "--proof-format", "dot",
        )
        assert code == 0
        text = target.read_text()
        assert text.startswith("digraph proof {")
        assert 'e12 -> e0 [style=dashed, label="[x/X#1, mi/m1#2]"];' in text


    def test_unwritable_target(self, tmp_path, capsys):
        target = tmp_path / "missing" / "proof.txt"
        code, lines = run(
            "--input", str(DATA / "golden.sep"), "--proof-out", str(target)
        )
        assert code == 2
        assert lines[0] == "VALID"
        assert capsys.readouterr().err == f"sepent: {target}: no such file\n"


    def test_directory_input_refused(self, tmp_path, capsys):
        target = tmp_path / "proof.txt"
        code, lines = run("--input", str(DATA), "--proof-out", str(target))
        assert (code, lines) == (2, [])
        err = capsys.readouterr().err
        assert err == f"sepent: {DATA}: --proof-out needs a single problem file\n"
        assert not target.exists()


class TestBatch:
    def test_bundled_directory_is_clean(self):
        code, lines = run("--input", str(DATA))
        assert code == 0
        assert lines[-1] == "checked 10 files: 0 mismatches, 0 errors"
        assert any("wand.smt2: SKIPPED" in l for l in lines)

    def test_mismatch_counts_and_exit(self, tmp_path):
        (tmp_path / "wrong.sep").write_text(
            "data c1 { c1 next; }\n"
            "check x->c1(null) |- emp\n"
            "expect valid\n"
        )
        code, lines = run("--input", str(tmp_path))
        assert code == 1
        assert lines[0].startswith("wrong.sep: INVALID MISMATCH")
        assert lines[-1] == "checked 1 files: 1 mismatches, 0 errors"

    def test_error_counts_and_exit(self, tmp_path):
        (tmp_path / "broken.sep").write_text("check (\n")
        code, lines = run("--input", str(tmp_path))
        assert code == 2
        assert lines[0].startswith("broken.sep: ERROR")
        assert lines[-1] == "checked 1 files: 0 mismatches, 1 errors"

    def test_memory_exhaustion_counts_as_error(self, tmp_path, monkeypatch):
        real = cli.prove

        def exhausted(query, reg, **kwargs):
            if query.rhs.spatial:
                raise MemoryError
            return real(query, reg, **kwargs)

        monkeypatch.setattr(cli, "prove", exhausted)
        (tmp_path / "a.sep").write_text(
            "data c1 { c1 next; }\ncheck x->c1(null) |- x->c1(null)\n"
        )
        (tmp_path / "b.sep").write_text(
            "data c1 { c1 next; }\ncheck x->c1(null) |- emp\nexpect invalid\n"
        )
        code, lines = run("--input", str(tmp_path))
        assert code == 2
        assert lines == [
            "a.sep: ERROR (out of memory)",
            "b.sep: INVALID (expected invalid)",
            "checked 2 files: 0 mismatches, 1 errors",
        ]

    def test_prover_rejection_counts_as_error(self, tmp_path):
        # parses, but prove() rejects the reserved name x#1
        (tmp_path / "reserved.smt2").write_text(
            "(declare-sort RefSll_t 0)\n"
            "(declare-datatypes ((Sll_t 0)) (((c_Sll_t (next RefSll_t)))))\n"
            "(declare-heap (RefSll_t Sll_t))\n"
            "(declare-const x#1 RefSll_t)\n"
            "(declare-const y RefSll_t)\n"
            "(assert (pto x#1 (c_Sll_t y)))\n"
            "(assert (not (pto x#1 (c_Sll_t y))))\n"
        )
        (tmp_path / "wrong.sep").write_text(
            "data c1 { c1 next; }\ncheck x->c1(null) |- emp\nexpect valid\n"
        )
        code, lines = run("--input", str(tmp_path), "--oracle-check")
        assert code == 2
        assert lines == [
            "reserved.smt2: ERROR (reserved variable names in input: x#1)",
            "wrong.sep: INVALID MISMATCH (expected valid)",
            "checked 2 files: 1 mismatches, 1 errors",
        ]

    def test_ill_kinded_term_counts_as_error(self, tmp_path):
        # an integer cell root: INVALID and then ORACLE-DISAGREES before the
        # reader checked kinds
        (tmp_path / "root.smt2").write_text(
            (DATA / "ls_concat.smt2").read_text().replace(
                "(assert (sep (ls x E) (ls E (as nil RefSll_t))))",
                "(assert (sep (pto 5 (c_Sll_t E)) (ls x E)))",
            )
        )
        code, lines = run("--input", str(tmp_path), "--oracle-check")
        assert code == 2
        assert lines == [
            "root.smt2: ERROR (points-to root takes a pointer, not 5:"
            " (pto 5 (c_Sll_t E)))",
            "checked 1 files: 0 mismatches, 1 errors",
        ]

    def test_redeclaration_counts_as_error(self, tmp_path):
        # the reader once kept the later of two definitions of ls
        text = (DATA / "ls_concat.smt2").read_text()
        ls = text[text.index("(define-fun-rec") : text.index("(declare-const")]
        (tmp_path / "twice.smt2").write_text(text.replace(ls, ls + ls.replace("X", "Y")))
        code, lines = run("--input", str(tmp_path))
        assert code == 2
        assert lines == [
            "twice.smt2: ERROR (predicate ls redeclared)",
            "checked 1 files: 0 mismatches, 1 errors",
        ]

    def test_dangling_symlink_counts_as_error(self, tmp_path, capsys):
        (tmp_path / "gone.sep").symlink_to(tmp_path / "missing.sep")
        (tmp_path / "wrong.sep").write_text(
            "data c1 { c1 next; }\ncheck x->c1(null) |- emp\nexpect valid\n"
        )
        code, lines = run("--input", str(tmp_path))
        assert code == 2
        assert lines == [
            "gone.sep: ERROR (no such file)",
            "wrong.sep: INVALID MISMATCH (expected valid)",
            "checked 2 files: 1 mismatches, 1 errors",
        ]
        link = tmp_path / "gone.sep"
        assert run_cli(["--input", str(link)], out=io.StringIO()) == 2
        assert capsys.readouterr().err == f"sepent: {link}: no such file\n"

    @pytest.mark.parametrize("name", ["golden.sep", "golden.smt2"])
    def test_byte_order_mark_is_dropped(self, name, tmp_path):
        # such a file once failed at 'unexpected character', or was
        # skipped as an unsupported construct in a directory
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + (DATA / name).read_bytes())
        assert run("--input", str(path), "--quiet") == (0, ["VALID"])
        assert run("--input", str(tmp_path)) == (0, [
            f"{name}: VALID (expected valid)",
            "checked 1 files: 0 mismatches, 0 errors",
        ])

    def test_expect_flag_applies_to_unannotated_files(self, tmp_path):
        (tmp_path / "plain.sep").write_text(
            "data c1 { c1 next; }\ncheck x->c1(null) |- emp\n"
        )
        code, lines = run("--input", str(tmp_path), "--expect", "valid")
        assert code == 1
        assert "MISMATCH" in lines[0]


class TestInstalledScript:
    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sepent.cli", "--input",
             str(DATA / "golden.sep"), "--quiet"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "VALID"

    def test_batch_without_asserts(self):
        # -O strips every assert, so no verdict, and no oracle answer, may
        # hang on one
        for extra in ([], ["--oracle-check"]):
            proc = subprocess.run(
                [sys.executable, "-O", "-m", "sepent.cli", "--input", str(DATA), *extra],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, extra
            assert "ORACLE-DISAGREES" not in proc.stdout
            assert proc.stdout.splitlines()[-1] == (
                "checked 10 files: 0 mismatches, 0 errors"
            )


class TestSharedArgumentParser:
    """One process builds the argument parser once; every call still
    answers as a fresh process does."""

    @staticmethod
    def in_process(argv, capsys):
        out = io.StringIO()
        try:
            code = run_cli(argv, out=out)
        except SystemExit as e:
            code = e.code
        return code, out.getvalue(), capsys.readouterr().err

    @staticmethod
    def fresh(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "sepent.cli", *argv],
            capture_output=True, text=True,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, calls, capsys):
        for argv in calls:
            assert self.in_process(argv, capsys) == self.fresh(argv), argv

    def test_built_once(self):
        assert _arg_parser() is _arg_parser()

    def test_refused_option_then_good_call(self, capsys):
        golden = str(DATA / "golden.sep")
        got = self.in_process(["--input", golden, "--node-budget", "0"], capsys)
        assert got[0] == 2
        self.check(
            [["--input", golden, "--node-budget", "0"], ["--input", golden]],
            capsys,
        )

    def test_no_namespace_leaks_between_calls(self, capsys):
        golden = str(DATA / "golden.sep")
        calls = [["--input", golden, "--expect", "invalid"], ["--input", golden]]
        assert [self.in_process(a, capsys)[0] for a in calls] == [1, 0]
        self.check(calls, capsys)

    def test_directory_twice(self, capsys):
        self.check([["--input", str(DATA)], ["--input", str(DATA)]], capsys)
