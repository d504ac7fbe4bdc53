"""Textual input format: grammar, kind inference, diagnostics, round-trips."""

from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import NATIVE_CORPUS, entailments, make_registry
from sepent import parser
from sepent.defs import Registry, check_wellformed
from sepent.engine import prove
from sepent.oracle import Bound, oracle_entails
from sepent.parser import (
    ParseError,
    ProblemFile,
    Token,
    _scan,
    parse_native,
    problem_text,
)
from sepent.slcomp import parse_slcomp
from sepent.syntax import NULL, ArithEq, PointsTo, PredOcc, PtrNeq, Var
from suite_cases import SUITE

DATA = Path(__file__).parent / "data"


def parse_q(query: str):
    return parse_native(NATIVE_CORPUS + "check " + query + "\n")


class TestCorpus:
    @pytest.mark.parametrize("spelling", ["border", "trans"])
    def test_registry_matches_programmatic_one(self, spelling):
        # border and trans are two spellings of one pass-through role
        corpus = NATIVE_CORPUS.replace("trans u", "border u")
        pf = parse_native(corpus.replace("border ", f"{spelling} ") + "check emp |- emp\n")
        assert pf.registry == make_registry()
        golden = (DATA / "golden.smt2").read_text()
        respelled = golden.replace("llb(root, seg, border)", f"llb(root, seg, {spelling})")
        assert parse_slcomp(respelled).registry == parse_slcomp(golden).registry

    def test_param_kinds_inferred_from_use(self):
        reg = parse_native(NATIVE_CORPUS + "check emp |- emp\n").registry
        kinds = lambda n: [(p.name, p.kind) for p in reg.preds[n].params]
        assert kinds("lla") == [("r", "ptr"), ("F", "ptr"), ("u", "int")]
        assert kinds("llb") == [("r", "ptr"), ("F", "ptr"), ("b", "int")]
        # nll's border feeds a pointer slot of ll, so it stays a pointer
        assert kinds("nll") == [("r", "ptr"), ("F", "ptr"), ("B", "ptr")]

    LSB = (
        "data c4 { c4 next; int val; }\n"
        "pred lsb(root r, seg F, border b) := emp /\\ r=F \\/ "
        "exists X, d. r->c4(X, d) * lsb(X, F, b) /\\ r!=F /\\ d=b;\n"
    )

    def test_border_kinded_by_equality(self):
        reg = parse_native(self.LSB + "check emp |- emp\n").registry
        d = reg.preds["lsb"]
        assert [(p.name, p.kind) for p in d.params] == [
            ("r", "ptr"), ("F", "ptr"), ("b", "int"),
        ]
        assert tuple(map(str, d.rec.arith)) == ("d=b",)
        assert isinstance(d.rec.arith[0], ArithEq)
        for val, valid in ((3, True), (2, False)):
            pf = parse_native(
                self.LSB + f"check x->c4(null, {val}) /\\ x!=null |- lsb(x, null, 3)\n"
            )
            assert prove(pf.query, pf.registry).valid is valid
            report = oracle_entails(pf.query, pf.registry, Bound(3, 4))
            assert report.bounded_valid is valid

    def test_expect_line(self):
        assert parse_q("emp |- emp").expect is None
        got = parse_native(NATIVE_CORPUS + "check emp |- emp\nexpect invalid\n")
        assert got.expect == "invalid"


_PUNCT = (":=", "|-", "->", "/\\", "\\/", "!=", "<=", ">=",
          "=", "(", ")", "{", "}", ",", ";", ".", "*", ":")


def reference_lex(text: str) -> list[Token]:
    """The character-by-character lexer the regular expression replaced."""
    toks: list[Token] = []
    i, line, col = 0, 1, 1

    def err(msg: str) -> ParseError:
        return ParseError(msg, line, col)

    while i < len(text):
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c in " \t\r":
            i, col = i + 1, col + 1
            continue
        if text.startswith("//", i):
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            while j < len(text) and text[j] == "'":
                j += 1
            toks.append(Token("ident", text[i:j], line, col, i))
            col += j - i
            i = j
            continue
        if c.isdigit() or (c == "-" and i + 1 < len(text) and text[i + 1].isdigit()):
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], line, col, i))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(Token("punct", p, line, col, i))
                col += len(p)
                i += len(p)
                break
        else:
            raise err(f"unexpected character {c!r}")
    toks.append(Token("eof", "", line, col, i))
    return toks


def _lex_outcome(lex, text):
    try:
        return [tuple(t) for t in lex(text)]
    except ParseError as e:
        return (str(e), e.line, e.col)


LEX_PIECES = list("abzXF_09'-=:|<>/\\!(){},;.* #\t\r\n") + [
    "é", "λ", "٣", "//", "->", "/\\", "\\/", ":=", "|-", "null",
]


class TestLexer:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(LEX_PIECES), max_size=40).map("".join))
    def test_matches_reference(self, text):
        want = _lex_outcome(reference_lex, text)
        got = _lex_outcome(_scan, text)
        if isinstance(want, list) and isinstance(got, list) and want[-1] != got[-1]:
            # the reference leaves the end column at the start of a final
            # comment; the lexer reports the true end
            last = text.rsplit("\n", 1)[-1]
            assert last[want[-1][3] - 1:].startswith("//")
            want[-1] = want[-1][:3] + (len(last) + 1,) + want[-1][4:]
        assert got == want

    def test_end_column_after_trailing_comment(self):
        text = "data c1 { c1 next; } // x"
        assert list(_scan(text))[-1] == Token("eof", "", 1, 26, 25)
        with pytest.raises(ParseError) as exc:
            parse_native(text)
        assert str(exc.value) == "line 1, col 26: missing check query"


class TestQueries:
    def test_golden_file(self):
        pf = parse_native((DATA / "golden.sep").read_text())
        ent = pf.query
        assert str(ent) == "lls(x, null, mi, ma)^0 /\\ x!=null |- llb(x, null, mi)"
        assert pf.expect == "valid"

    def test_named_fields_normalize_to_positional(self):
        pf = parse_q("x->c4{val: 3, next: y} /\\ x!=null |- llb(x, null, 2)")
        cell = pf.query.lhs.spatial[0]
        assert isinstance(cell, PointsTo)
        assert str(cell) == "x->c4(y, 3)"

    def test_pure_only_side_spells_emp(self):
        ent = parse_q("emp /\\ x!=null |- x->c1(null)").query
        assert ent.lhs.spatial == ()
        assert ent.lhs.pure == (PtrNeq(Var("x"), NULL),)

    def test_occurrences_start_folded(self):
        ent = parse_q("ll(x, E) * ll(E, null) /\\ x!=E |- ll(x, null)").query
        assert all(isinstance(a, PredOcc) and a.unfold == 0 for a in ent.lhs.spatial)

    def test_trailing_primes_are_plain_names(self):
        ent = parse_q("ll(x', null) /\\ x'!=null |- ll(x', null)").query
        assert ent.lhs.spatial[0].args[0] == Var("x'")


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.sep")))
    def test_data_files(self, name):
        pf = parse_native((DATA / name).read_text())
        assert parse_native(problem_text(pf)) == pf

    def test_parse_is_deterministic(self):
        text = (DATA / "golden.sep").read_text()
        assert parse_native(text) == parse_native(text)

    SP = ["ll(x, E)", "ll(E, null)", "x->c1(y)", "y->c1(null)",
          "lls(z, null, a, b)", "tree(w, null)"]
    PU = ["x!=null", "x!=E", "x=y", "E!=null", "a<=b", "a=0", "b=5", "w!=null"]

    @staticmethod
    def _side(sp, pu):
        parts = " * ".join(sp) if sp else "emp"
        return parts + ("" if not pu else " /\\ " + " /\\ ".join(pu))

    @settings(max_examples=60, deadline=None)
    @given(
        lsp=st.lists(st.sampled_from(SP), unique=True, max_size=3),
        lpu=st.lists(st.sampled_from(PU), unique=True, max_size=3),
        rsp=st.lists(st.sampled_from(SP), unique=True, max_size=2),
        rpu=st.lists(st.sampled_from(PU), unique=True, max_size=2),
    )
    def test_random_queries(self, lsp, lpu, rsp, rpu):
        # conclusion variables must come from the premise; skip draws that don't
        try:
            pf = parse_q(self._side(lsp, lpu) + " |- " + self._side(rsp, rpu))
        except ParseError as e:
            assume("missing from the premise" not in str(e))
            raise
        assert parse_native(problem_text(pf)) == pf


BODY_SORTS = "data c1 { c1 next; }\ndata c2 { c2 next; int val; }\n"

DIAGNOSTICS = [
    ("two_roots",
     "data c1 { c1 next; }\n"
     "pred p(root r, root F) := emp /\\ r=F \\/ exists X. r->c1(X) * p(X, F) /\\ r!=F;\n"
     "check emp |- emp\n",
     2, 6, "p: needs exactly one root and one seg parameter"),
    ("src_without_tgt",
     "data c4 { c4 next; int val; }\n"
     "pred p(root r, seg F, src m) := emp /\\ r=F \\/ "
     "exists X, m1. r->c4(X, m1) * p(X, F, m1) /\\ r!=F;\n"
     "check emp |- emp\n",
     2, 6, "p: src/tgt must appear as a pair, at most once"),
    ("root_second",
     "data c1 { c1 next; }\n"
     "pred ll(seg F, root r) := emp /\\ r=F \\/ "
     "exists X. r->c1(X) * ll(F, X) /\\ r!=F;\n"
     "check emp |- emp\n",
     2, 6, "ll: the root parameter must come first"),
    ("missing_query", "data c1 { c1 next; }\n", 2, 1, "missing check query"),
    ("two_queries", "check emp |- emp\ncheck emp |- emp\n",
     2, 1, "a file holds exactly one check query"),
    ("unknown_field", NATIVE_CORPUS + "check x->c1{down: y} |- emp\n",
     43, 13, "c1 has no field 'down'"),
    ("reserved_marker", NATIVE_CORPUS + "check ll(x#1, null) |- emp\n",
     43, 11, "unexpected character '#'"),
    ("unguarded_recursion",
     "data c1 { c1 next; }\n"
     "pred oops(root r, seg F) := emp /\\ r=F \\/ exists X. r->c1(X) * oops(X, F);\n"
     "check emp |- emp\n",
     2, 6, "oops: recursive branch must require r!=F"),
    ("bad_base_branch",
     "data c1 { c1 next; }\n"
     "pred oops(root r, seg F) := emp \\/ exists X. r->c1(X) * oops(X, F) /\\ r!=F;\n"
     "check emp |- emp\n",
     2, 6, "oops: base branch must be emp /\\ r=F"),
    ("mixed_kinds", NATIVE_CORPUS + "check ll(x, null) /\\ x<=3 |- ll(x, null)\n",
     43, 22, "mixed pointer/integer use of 'x'"),
    ("int_literal_as_pointer", NATIVE_CORPUS + "check ll(x, null) /\\ x!=3 |- ll(x, null)\n",
     43, 22, "integer literal used as a pointer"),
    ("null_as_integer", NATIVE_CORPUS + "check lls(x, null, null, ma) |- llb(x, null, 0)\n",
     43, 7, "null used as an integer"),
    ("equality_mixes_kinds",
     NATIVE_CORPUS + "check ll(x, null) * lls(y, null, a, b) /\\ x=a |- ll(x, null)\n",
     43, 43, "equality mixes pointer and integer operands"),
    ("unknown_predicate", NATIVE_CORPUS + "check foo(x) |- emp\n",
     43, 7, "unknown predicate 'foo'"),
    ("occurrence_arity", NATIVE_CORPUS + "check ll(x) |- emp\n",
     43, 7, "ll expects 2 arguments"),
    ("unknown_sort", "check x->c9(y) |- emp\n", 1, 7, "unknown sort 'c9'"),
    ("missing_semicolon", "data c1 { c1 next }\ncheck emp |- emp\n",
     1, 19, "expected ';', found '}'"),
    ("exists_in_query", NATIVE_CORPUS + "check emp |- exists X. ll(X, null)\n",
     43, 14, "'exists' is a reserved word"),
    ("three_branches",
     "data c1 { c1 next; }\n"
     "pred p(root r, seg F) := emp /\\ r=F \\/ exists X. r->c1(X) * p(X, F) /\\ r!=F"
     " \\/ emp /\\ r=F;\ncheck emp |- emp\n",
     2, 90, "p: need the base branch and one recursive branch"),
    ("bad_expect", NATIVE_CORPUS + "check emp |- emp\nexpect maybe\n",
     44, 8, "expect takes 'valid' or 'invalid'"),
    ("two_expects", NATIVE_CORPUS + "check emp |- emp\nexpect valid\nexpect invalid\n",
     45, 1, "a file holds at most one expect line"),
    ("pure_only_without_emp", NATIVE_CORPUS + "check x!=null |- emp\n",
     43, 7, "expected a cell, a predicate occurrence, or emp"),
    ("body_unknown_predicate",
     BODY_SORTS + "pred p(root r, seg F) := emp /\\ r=F \\/ "
     "exists X, Y. r->c1(X) * q(Y, F) * p(X, F) /\\ r!=F;\ncheck emp |- emp\n",
     3, 64, "unknown predicate 'q'"),
    ("self_occurrence_arity",
     BODY_SORTS + "pred p(root r, seg F) := emp /\\ r=F \\/ "
     "exists X. r->c1(X) * p(X) /\\ r!=F;\ncheck emp |- emp\n",
     3, 61, "p expects 2 arguments"),
    ("body_cell_field_count",
     BODY_SORTS + "pred p(root r, seg F) := emp /\\ r=F \\/ "
     "exists X. r->c1(X, F) * p(X, F) /\\ r!=F;\ncheck emp |- emp\n",
     3, 50, "c1 has 1 fields"),
    ("body_named_cell_missing_field",
     BODY_SORTS + "pred p(root r, seg F) := emp /\\ r=F \\/ "
     "exists X. r->c2{next: X} * p(X, F) /\\ r!=F;\ncheck emp |- emp\n",
     3, 50, "c2 needs all of: next, val"),
    ("body_duplicate_named_field",
     BODY_SORTS + "pred p(root r, seg F) := emp /\\ r=F \\/ "
     "exists X. r->c2{next: X, next: X} * p(X, F) /\\ r!=F;\ncheck emp |- emp\n",
     3, 65, "duplicate field 'next'"),
    ("body_mixed_kinds",
     BODY_SORTS + "pred p(root r, seg F) := emp /\\ r=F \\/ "
     "exists X. r->c2(X, X) * p(X, F) /\\ r!=F;\ncheck emp |- emp\n",
     3, 50, "mixed pointer/integer use of 'X'"),
]


class TestDiagnostics:
    @pytest.mark.parametrize(
        "text,line,col,msg",
        [d[1:] for d in DIAGNOSTICS],
        ids=[d[0] for d in DIAGNOSTICS],
    )
    def test_position_and_message(self, text, line, col, msg):
        with pytest.raises(ParseError) as exc:
            parse_native(text)
        err = exc.value
        assert (err.line, err.col) == (line, col)
        assert str(err) == f"line {line}, col {col}: {msg}"

    def test_wellformedness_failures_surface_as_parse_errors(self):
        # a second cell in the recursive branch breaks the one-cell template
        text = (
            "data c1 { c1 next; }\n"
            "pred p(root r, seg F) := emp /\\ r=F \\/ "
            "exists X, Y. r->c1(X) * X->c1(Y) * p(Y, F) /\\ r!=F;\n"
            "check emp |- emp\n"
        )
        with pytest.raises(ParseError):
            parse_native(text)


# ------------------------------------------------------- the definition memo


def outcome(text):
    """A parse's result, rendered too so that order counts, or its error."""
    try:
        pf = parse_native(text)
    except ParseError as e:
        return (str(e), e.line, e.col)
    return pf, problem_text(pf)


def cold(text):
    parser._defs.clear()
    return outcome(text)


def warm(text, *before):
    """Parse `text` after the memo has seen `before` and `text` itself."""
    parser._defs.clear()
    for t in (*before, text):
        outcome(t)
    return outcome(text)


def parsed_blocks(text, *before):
    """How many blocks of `text` are parsed, not taken from the memo,
    after the memo has seen `before`."""
    parser._defs.clear()
    for t in before:
        outcome(t)
    kept = {id(b) for b in parser._defs}
    outcome(text)
    return sum(id(b) not in kept for b in parser._defs)


MEMO_SORTS = (
    "data c1 { c1 next; }\n"
    "data c3 { c3 next; c1 down; }\n"
    "data c4 { c4 next; int val; }\n"
)
# q in three shapes: a pointer border, an integer border, no border
Q_PTR = (
    "pred q(root r, seg F, border B) := emp /\\ r=F \\/ "
    "exists X. r->c1(X) * q(X, F, B) /\\ r!=F;\n"
)
Q_INT = (
    "pred q(root r, seg F, border B) := emp /\\ r=F \\/ "
    "exists X, d. r->c4(X, d) * q(X, F, B) /\\ r!=F /\\ B<=d;\n"
)
Q_TWO = (
    "pred q(root r, seg F) := emp /\\ r=F \\/ "
    "exists X. r->c1(X) * q(X, F) /\\ r!=F;\n"
)
# p reads c3 and q: its border takes the kind of q's
P_BLOCK = (
    "pred p(root r, seg F, border B) := emp /\\ r=F \\/ "
    "exists X, Z. r->c3(X, Z) * q(Z, null, B) * p(X, F, B) /\\ r!=F;\n"
)
# s reads c2, whose second field decides the kind of d
S_BLOCK = (
    "pred s(root r, seg F) := emp /\\ r=F \\/ "
    "exists X, d. r->c2(X, d) * s(X, F) /\\ r!=F /\\ d<=0;\n"
)
QUERY = "check emp |- emp\n"


class TestDefinitionMemo:
    """A parse with a warm memo gives what a cold one gives: the same
    ProblemFile, or the same error at the same place."""

    def test_warm_parse_hands_back_the_remembered_definitions(self):
        text = NATIVE_CORPUS + QUERY
        parser._defs.clear()
        first, second = parse_native(text), parse_native(text)
        assert first == second
        for name, d in first.registry.preds.items():
            assert second.registry.preds[name] is d

    @pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.sep")))
    def test_data_files(self, name):
        others = [p.read_text() for p in sorted(DATA.glob("*.sep"))]
        text = (DATA / name).read_text()
        assert warm(text, *others) == cold(text)

    def test_suite_case_files(self):
        texts = [NATIVE_CORPUS + f"check {seq}\n" for _, seq, _ in SUITE]
        want = [cold(t) for t in texts]
        parser._defs.clear()
        assert [outcome(t) for t in texts] == want

    @settings(max_examples=60, deadline=None)
    @given(entailments())
    def test_generated_problems(self, ent):
        text = problem_text(ProblemFile(make_registry(), ent))
        assert warm(text, NATIVE_CORPUS + QUERY) == cold(text)

    def test_sort_changes_its_field_kinds(self):
        ptr = MEMO_SORTS + "data c2 { c2 next; c2 down; }\n" + S_BLOCK + QUERY
        num = MEMO_SORTS + "data c2 { c2 next; int val; }\n" + S_BLOCK + QUERY
        assert cold(ptr) == ("line 5, col 86: mixed pointer/integer use of 'd'", 5, 86)
        assert isinstance(cold(num)[0], ProblemFile)
        assert warm(ptr, num) == cold(ptr)
        assert warm(num, ptr) == cold(num)

    @pytest.mark.parametrize(
        "before,after",
        [(Q_PTR, Q_INT), (Q_INT, Q_PTR), (Q_PTR, Q_TWO), (Q_PTR, "")],
        ids=["ptr_to_int", "int_to_ptr", "arity", "missing"],
    )
    def test_referenced_predicate_changes(self, before, after):
        old = MEMO_SORTS + before + P_BLOCK + QUERY
        new = MEMO_SORTS + after + P_BLOCK + QUERY
        assert cold(old) != cold(new)
        assert warm(new, old) == cold(new)

    def test_changed_kind_and_arity_and_absence_show_cold(self):
        kinds = lambda text: [p.kind for p in cold(text)[0].registry.preds["p"].params]
        assert kinds(MEMO_SORTS + Q_PTR + P_BLOCK + QUERY) == ["ptr", "ptr", "ptr"]
        assert kinds(MEMO_SORTS + Q_INT + P_BLOCK + QUERY) == ["ptr", "ptr", "int"]
        assert cold(MEMO_SORTS + Q_TWO + P_BLOCK + QUERY)[0].endswith(
            "q expects 2 arguments"
        )
        assert cold(MEMO_SORTS + P_BLOCK + QUERY)[0].endswith(
            "unknown predicate 'q'"
        )

    def test_redeclared_after_a_warm_hit(self):
        once = MEMO_SORTS + Q_PTR + P_BLOCK + QUERY
        twice = MEMO_SORTS + Q_PTR + P_BLOCK + P_BLOCK + QUERY
        assert cold(twice) == ("line 6, col 6: predicate p redeclared", 6, 6)
        assert warm(twice, once) == cold(twice)

    def test_failed_block_fails_again_where_it_stands(self):
        bad = MEMO_SORTS + "data c2 { c2 next; c2 down; }\n" + S_BLOCK + QUERY
        moved = "// moved\n\n" + bad
        assert warm(moved, bad) == cold(moved)
        assert cold(moved)[1:] == (7, 86)

    BLOCKS = MEMO_SORTS + Q_PTR + P_BLOCK

    @pytest.mark.parametrize("k", [1, 4])
    def test_moved_blocks_then_an_error(self, k):
        moved = "// moved\n" * k + self.BLOCKS + "check p(x, y) |- emp\n"
        assert cold(moved) == ("line %d, col 7: p expects 3 arguments" % (k + 6), k + 6, 7)
        assert parsed_blocks(moved, self.BLOCKS + QUERY) == 0
        assert warm(moved, self.BLOCKS + QUERY) == cold(moved)

    def test_lexing_error_after_remembered_blocks_comes_first(self):
        text = self.BLOCKS + "check p(x, y) |- emp\n// fine\n  #\n"
        assert cold(text) == ("line 8, col 3: unexpected character '#'", 8, 3)
        assert warm(text, self.BLOCKS + QUERY) == cold(text)

    COMMENTED = (
        "data c1 { c1 next; // not the end }\n}\n"
        "pred q(root r, seg F) := emp /\\ r=F // nor this;\n"
        "  \\/ exists X. r->c1(X) * q(X, F) /\\ r!=F;\n"
    )

    def test_block_end_inside_a_comment(self):
        text = self.COMMENTED + "check q(x) |- emp\n"
        assert cold(text) == ("line 5, col 7: q expects 2 arguments", 5, 7)
        assert parsed_blocks(text, self.COMMENTED + QUERY) == 0
        assert warm(text, self.COMMENTED + QUERY) == cold(text)
        # on the line where a remembered block that spans lines ends
        same_line = self.COMMENTED[:-1] + " check q(x) |- emp\n"
        assert cold(same_line) == ("line 4, col 50: q expects 2 arguments", 4, 50)
        assert warm(same_line, self.COMMENTED + QUERY) == cold(same_line)
        # another comment is another text: parsed again, to the same result
        other = self.COMMENTED.replace("nor this", "nor that") + QUERY
        assert parsed_blocks(other, self.COMMENTED + QUERY) == 1
        assert warm(other, self.COMMENTED + QUERY) == cold(other)

    def test_blocks_and_tokens_on_one_line(self):
        line = "data c1 { c1 next; } data c4 { c4 next; int val; } " + Q_TWO[:-1]
        text = line + " check q(x) |- emp\n"
        col = len(line) + 8
        assert cold(text) == (f"line 1, col {col}: q expects 2 arguments", 1, col)
        assert parsed_blocks(text, line + "\n" + QUERY) == 0
        assert warm(text, line + "\n" + QUERY) == cold(text)
        good = line + " check q(x, y) |- emp expect valid\n"
        assert isinstance(cold(good)[0], ProblemFile)
        assert warm(good, text) == cold(good)

    def test_crlf_line_ends(self):
        crlf = lambda t: t.replace("\n", "\r\n")
        text = crlf(NATIVE_CORPUS + "\ncheck ll(x) |- emp\n")
        line = NATIVE_CORPUS.count("\n") + 2
        assert cold(text) == (f"line {line}, col 7: ll expects 2 arguments", line, 7)
        assert parsed_blocks(text, crlf(NATIVE_CORPUS + QUERY)) == 0
        assert warm(text, crlf(NATIVE_CORPUS + QUERY)) == cold(text)
        # a block that spans lines is another text with other line ends
        spanning = len(make_registry().preds)
        assert parsed_blocks(text, NATIVE_CORPUS + QUERY) == spanning
        assert warm(text, NATIVE_CORPUS + QUERY) == cold(text)

    def test_field_sort_missing_in_the_second_file(self):
        first = MEMO_SORTS + QUERY
        second = MEMO_SORTS.split("\n", 1)[1] + QUERY
        assert cold(second) == ("line 1, col 20: unknown sort 'c1'", 1, 20)
        assert warm(second, first) == cold(second)
        # c1 declared otherwise: c3 reads another sort, so it is parsed again
        third = "data c1 { c1 next; int val; }\n" + second
        assert parsed_blocks(third, first) == 2
        assert warm(third, first) == cold(third)

    def test_findings_kept_with_a_definition(self):
        # an existential that is not a head field breaks C1 after parsing
        bad = (
            "data c1 { c1 next; }\n"
            "pred q(root r, seg F) := emp /\\ r=F"
            " \\/ exists X, Y. r->c1(X) * q(X, F) /\\ r!=F;\n"
        )
        want = ("line 2, col 1: q: C1 violated, existential Y is not a head field", 2, 1)
        assert cold(bad + QUERY) == want
        assert parsed_blocks(bad + QUERY, bad + QUERY) == 0
        assert warm(bad + QUERY, bad + QUERY) == want

    @pytest.mark.parametrize("memo", ["cold", "warm"])
    def test_checked_is_what_check_wellformed_records(self, memo):
        texts = [p.read_text() for p in sorted(DATA.glob("*.sep"))]
        texts += [NATIVE_CORPUS + f"check {seq}\n" for _, seq, _ in SUITE]
        parser._defs.clear()
        for t in texts:
            if memo == "cold":
                parser._defs.clear()
            reg = parse_native(t).registry
            fresh = Registry(dict(reg.sorts), dict(reg.preds))
            check_wellformed(fresh)
            assert reg.checked == fresh.checked

    def test_memo_keeps_the_last_64_blocks(self):
        parser._defs.clear()
        sorts = "".join(f"data s{i} {{ s{i} next; }}\n" for i in range(200))
        parse_native(sorts + QUERY)
        assert len(parser._defs) == 64
        assert parser._defs[-1].decl.name == "s199"
