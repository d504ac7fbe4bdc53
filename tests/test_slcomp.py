"""SMT-LIB separation-logic input: both query encodings, ref-sort
resolution, role comments, and rejection of out-of-scope constructs."""

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import parse_query
from sepent.defs import Role
from sepent.engine import prove
from sepent.slcomp import (
    RoleAnnotationMissing,
    SlcompError,
    UnsupportedConstruct,
    _read_all,
    parse_slcomp,
)

DATA = Path(__file__).parent / "data"

GOLDEN = (DATA / "golden.smt2").read_text()
LS_CONCAT = (DATA / "ls_concat.smt2").read_text()


class TestGoldenFile:
    def test_query_and_status(self):
        pf = parse_slcomp(GOLDEN)
        assert str(pf.query) == (
            "lls(x, null, mi, ma)^0 /\\ x!=null |- llb(x, null, mi)"
        )
        assert pf.expect == "valid"

    def test_registry_shape(self):
        reg = parse_slcomp(GOLDEN).registry
        assert set(reg.preds) == {"lls", "llb"}
        # datatype fields resolve through the ref sort back to the record
        assert reg.sorts["Sll_t"].fields == (("next", "Sll_t"), ("val", "int"))
        lls = reg.preds["lls"]
        assert [p.role for p in lls.params] == [
            Role.ROOT, Role.SEG, Role.SRC, Role.TGT,
        ]
        assert str(lls.rec.order) == "mi<=m1"

    def test_same_proof_as_native_input(self):
        smt = prove(parse_slcomp(GOLDEN).query, parse_slcomp(GOLDEN).registry)
        nat = prove(
            parse_query("lls(x, null, mi, ma) /\\ x!=null |- llb(x, null, mi)"),
            __import__("conftest").make_registry(),
        )
        assert smt.valid and nat.valid
        assert list(smt.tree.edges()) == list(nat.tree.edges())
        assert list(smt.tree.backlinks()) == list(nat.tree.backlinks())


class TestEncodings:
    def test_paired_asserts(self):
        pf = parse_slcomp((DATA / "ls_concat.smt2").read_text())
        assert str(pf.query) == "ls(x, E)^0 * ls(E, null)^0 |- ls(x, null)"
        assert pf.expect == "valid"

    def test_status_sat_means_invalid(self):
        text = GOLDEN.replace(":status unsat", ":status sat")
        assert parse_slcomp(text).expect == "invalid"

    def test_no_status_means_no_expectation(self):
        text = GOLDEN.replace("(set-info :status unsat)\n", "")
        assert parse_slcomp(text).expect is None

    def test_nested_definitions(self):
        pf = parse_slcomp((DATA / "nested.smt2").read_text())
        assert set(pf.registry.preds) == {"ls", "nll"}
        matrix = pf.registry.preds["nll"].rec.matrix
        assert len(matrix) == 1 and matrix[0].pred == "ls"
        v = prove(pf.query, pf.registry)
        assert v.valid

    def test_nary_distinct_expands_pairwise(self):
        text = GOLDEN.replace(
            "(distinct x (as nil RefSll_t))",
            "(distinct x y (as nil RefSll_t))",
        ).replace(
            "(declare-const x RefSll_t)",
            "(declare-const x RefSll_t)\n(declare-const y RefSll_t)",
        )
        pf = parse_slcomp(text)
        rendered = str(pf.query.lhs)
        assert "x!=y" in rendered
        assert "x!=null" in rendered and "y!=null" in rendered

    def test_plain_nil_symbol(self):
        text = (DATA / "ls_concat.smt2").read_text().replace(
            "(as nil RefSll_t)", "nil"
        )
        pf = parse_slcomp(text)
        assert str(pf.query) == "ls(x, E)^0 * ls(E, null)^0 |- ls(x, null)"


class TestRejections:
    def test_wand_is_unsupported(self):
        with pytest.raises(UnsupportedConstruct) as exc:
            parse_slcomp((DATA / "wand.smt2").read_text())
        assert "wand" in exc.value.construct
        assert str(exc.value).startswith("unsupported construct:")

    def test_missing_roles_comment(self):
        text = GOLDEN.replace(";; roles: lls(root, seg, src, tgt)\n", "")
        with pytest.raises(RoleAnnotationMissing) as exc:
            parse_slcomp(text)
        assert exc.value.pred == "lls"

    def test_declare_fun_is_unsupported(self):
        text = GOLDEN.replace(
            "(declare-const x RefSll_t)",
            "(declare-fun f (Int) Int)\n(declare-const x RefSll_t)",
        )
        with pytest.raises(UnsupportedConstruct):
            parse_slcomp(text)

    def test_exists_inside_query(self):
        text = (DATA / "ls_concat.smt2").read_text().replace(
            "(assert (sep (ls x E) (ls E (as nil RefSll_t))))",
            "(assert (exists ((w RefSll_t)) (ls x w)))",
        )
        with pytest.raises(UnsupportedConstruct):
            parse_slcomp(text)

    def test_roles_arity_mismatch(self):
        text = GOLDEN.replace(
            ";; roles: lls(root, seg, src, tgt)",
            ";; roles: lls(root, seg)",
        )
        with pytest.raises(SlcompError):
            parse_slcomp(text)

    @pytest.mark.parametrize(
        "roles,msg",
        [
            ("root, border, src, tgt", "lls: needs exactly one root and one seg parameter"),
            ("root, seg, src, border", "lls: src/tgt must appear as a pair, at most once"),
            ("seg, root, src, tgt", "lls: the root parameter must come first"),
        ],
        ids=["no_seg", "src_without_tgt", "root_second"],
    )
    def test_role_faults(self, roles, msg):
        text = GOLDEN.replace("lls(root, seg, src, tgt)", f"lls({roles})")
        with pytest.raises(SlcompError) as exc:
            parse_slcomp(text)
        assert str(exc.value) == msg

    def test_undeclared_constant(self):
        text = GOLDEN.replace("(declare-const x RefSll_t)\n", "")
        with pytest.raises(SlcompError):
            parse_slcomp(text)

    def test_unmapped_ref_sort(self):
        text = GOLDEN.replace("(declare-heap (RefSll_t Sll_t))\n", "")
        with pytest.raises(SlcompError):
            parse_slcomp(text)

    @pytest.mark.parametrize(
        "old,new,msg",
        [
            (
                "(declare-datatypes ((Sll_t 0)) (((c_Sll_t (next RefSll_t)))))",
                "(declare-datatypes ((Sll_t 0)))",
                "bad datatypes",
            ),
            (
                "(declare-datatypes ((Sll_t 0))",
                "(declare-datatypes (3(Sll_t 0))",
                "bad datatypes",
            ),
            (
                "(declare-const x RefSll_t)",
                "(declare-const (x) RefSll_t)",
                "bad constant",
            ),
            ("(declare-datatypes", "(declare-datatype", "bad datatype"),
            ("(next RefSll_t)", "(next (RefSll_t))", "bad constructor"),
            ("(exists ((X RefSll_t))", "(exists (2(X RefSll_t))", "bad exists"),
            ("(RefSll_t Sll_t))", "((RefSll_t) Sll_t))", "bad heap declaration"),
            ("(define-fun-rec ls ", "(define-fun-rec (ls) ", "bad definition header"),
            ("((r RefSll_t)", "(((r) RefSll_t)", "bad definition header"),
            ("(pto r (c_Sll_t X))", "(pto r ((c_Sll_t) X))", "unknown constructor"),
        ],
        ids=[
            "datatypes_without_bodies",
            "datatypes_numeral_name",
            "const_list_name",
            "datatype_singular_with_plural_shape",
            "field_list_sort",
            "exists_numeral_binder",
            "heap_list_sort",
            "definition_list_name",
            "parameter_list_name",
            "pto_list_constructor",
        ],
    )
    def test_malformed_shapes(self, old, new, msg):
        assert old in LS_CONCAT
        with pytest.raises(SlcompError) as exc:
            parse_slcomp(LS_CONCAT.replace(old, new, 1))
        assert str(exc.value).startswith(msg)

    def test_empty_negation(self):
        text = LS_CONCAT.replace(
            "(assert (not (ls x (as nil RefSll_t))))", "(assert (not))"
        )
        with pytest.raises(UnsupportedConstruct):
            parse_slcomp(text)



# Each term in a position of the other kind, as the native parser refuses
# it: an integer where a pointer goes (cell root, pointer field, pointer
# argument) and nil where an Int goes (Int field, Int argument).
_ILL_KINDED_DEFINITIONS = [
    ("(pto r (c_Sll_t X m1))", "(pto 5 (c_Sll_t X m1))", "points-to root takes a pointer, not 5"),
    ("(pto r (c_Sll_t X m1))", "(pto mi (c_Sll_t X m1))", "points-to root takes a pointer, not mi"),
    ("(pto r (c_Sll_t X m1))", "(pto r (c_Sll_t 5 m1))", "field next takes a pointer, not 5"),
    ("(pto r (c_Sll_t X m1))", "(pto r (c_Sll_t m1 m1))", "field next takes a pointer, not m1"),
    ("(pto r (c_Sll_t X m1))", "(pto r (c_Sll_t X nil))", "field val takes an Int, not null"),
    ("(pto r (c_Sll_t X m1))", "(pto r (c_Sll_t X X))", "field val takes an Int, not X"),
    ("(lls X F m1 ma)", "(lls 5 F m1 ma)", "argument 1 of lls takes a pointer, not 5"),
    ("(lls X F m1 ma)", "(lls X ma m1 ma)", "argument 2 of lls takes a pointer, not ma"),
    ("(lls X F m1 ma)", "(lls X F nil ma)", "argument 3 of lls takes an Int, not null"),
    ("(llb X F b)", "(llb X F (as nil RefSll_t))", "argument 3 of llb takes an Int, not null"),
]


@pytest.mark.parametrize("old,new,msg", _ILL_KINDED_DEFINITIONS)
def test_ill_kinded_term_in_a_definition(old, new, msg):
    assert old in GOLDEN
    with pytest.raises(SlcompError) as exc:
        parse_slcomp(GOLDEN.replace(old, new, 1))
    assert str(exc.value) == f"{msg}: {new}"


# The golden query with a cell in its premise.
_CELL = "(pto x (c_Sll_t x mi))"
_CELL_QUERY = GOLDEN.replace("(distinct x (as nil RefSll_t))", _CELL)
_LLS = "(lls x (as nil RefSll_t) mi ma)"
_LLB = "(llb x (as nil RefSll_t) mi)"


@pytest.mark.parametrize(
    "old,new,msg",
    [
        (_CELL, "(pto 5 (c_Sll_t x mi))", "points-to root takes a pointer, not 5"),
        (_CELL, "(pto ma (c_Sll_t x mi))", "points-to root takes a pointer, not ma"),
        (_CELL, "(pto x (c_Sll_t 5 mi))", "field next takes a pointer, not 5"),
        (_CELL, "(pto x (c_Sll_t ma mi))", "field next takes a pointer, not ma"),
        (_CELL, "(pto x (c_Sll_t x nil))", "field val takes an Int, not null"),
        (_LLS, "(lls 5 nil mi ma)", "argument 1 of lls takes a pointer, not 5"),
        (_LLS, "(lls x mi mi ma)", "argument 2 of lls takes a pointer, not mi"),
        (_LLS, "(lls x nil nil ma)", "argument 3 of lls takes an Int, not null"),
        (_LLB, "(llb x nil nil)", "argument 3 of llb takes an Int, not null"),
    ],
)
def test_ill_kinded_term_in_the_query(old, new, msg):
    pf = parse_slcomp(_CELL_QUERY)
    assert str(pf.query.lhs) == "lls(x, null, mi, ma) * x->Sll_t(x, mi)"
    assert old in _CELL_QUERY
    with pytest.raises(SlcompError) as exc:
        parse_slcomp(_CELL_QUERY.replace(old, new, 1))
    assert str(exc.value) == f"{msg}: {new}"


@pytest.mark.parametrize("where", ["(distinct r F)", "(distinct x (as nil RefSll_t))"])
def test_integer_disequality_is_unsupported(where):
    # the fragment has pointer disequalities only
    with pytest.raises(UnsupportedConstruct) as exc:
        parse_slcomp(GOLDEN.replace(where, "(distinct mi ma)", 1))
    assert exc.value.construct == "(distinct mi ma)"

# A second declaration of a name is refused where it stands, as the native
# parser refuses one; the reader once kept the later declaration, or failed
# further on with a message about its consequence.
_LAST_DECLARATION = "(declare-const E RefSll_t)"
_LS = LS_CONCAT[LS_CONCAT.index("(define-fun-rec") : LS_CONCAT.index("(declare-const")]


@pytest.mark.parametrize(
    "again,msg",
    [
        (_LS.replace("X", "Y"), "predicate ls redeclared"),
        ("(declare-datatype Sll_t ((c_Other (next RefSll_t) (val Int))))", "sort Sll_t redeclared"),
        ("(declare-datatype Other ((c_Sll_t (next RefSll_t))))", "constructor c_Sll_t redeclared"),
        ("(declare-const E Int)", "constant E redeclared"),
        ("(declare-heap (RefSll_t Sll_t))", "address sort RefSll_t redeclared"),
    ],
    ids=["predicate", "sort", "constructor", "constant", "address-sort"],
)
def test_redeclaration_is_refused(again, msg):
    text = LS_CONCAT.replace(_LAST_DECLARATION, f"{_LAST_DECLARATION}\n{again}")
    with pytest.raises(SlcompError) as exc:
        parse_slcomp(text)
    assert str(exc.value) == msg


@pytest.mark.parametrize(
    "text,forms",
    [
        ("(a |(| b)", [["a", "(", "b"]]),
        ("(a |)| b)", [["a", ")", "b"]]),
        ("(|)(| |12| 12)", [[")(", "12", 12]]),
    ],
)
def test_quoted_symbols(text, forms):
    """A |quoted| symbol reads as a symbol, never as structure or a number."""
    assert _read_all(text) == forms


# The character-by-character reader that `_read_all` replaced, kept
# verbatim as the reference it must match, values and errors alike.
def _ref_read_all(text: str):
    out = []
    stack = []

    def put(x):
        (stack[-1] if stack else out).append(x)

    i = 0
    while i < len(text):
        c = text[i]
        if c == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif c == "(":
            stack.append([])
            i += 1
        elif c == ")":
            if not stack:
                raise SlcompError("unbalanced ')'")
            put(stack.pop())
            i += 1
        elif c.isspace():
            i += 1
        elif c == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise SlcompError("unterminated |..| symbol")
            put(text[i + 1 : j])
            i = j + 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "();":
                j += 1
            t = text[i:j]
            put(int(t) if re.fullmatch(r"-?\d+", t) else t)
            i = j
    if stack:
        raise SlcompError("unbalanced '('")
    return out


def _read_outcome(read, text):
    try:
        return read(text)
    except SlcompError as e:
        return f"SlcompError: {e}"


_PIECES = ["(", ")", "|", ";", " ", "\n", "\t", "\x1c", "\u3000", "x", "ab", "-", "-12", "7", "0x", "\u0663"]


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join), st.text()))
def test_reader_matches_reference(text):
    assert _read_outcome(_read_all, text) == _read_outcome(_ref_read_all, text)


@pytest.mark.parametrize("path", sorted(DATA.glob("*.smt2")), ids=lambda p: p.name)
def test_reader_matches_reference_on_bundled_files(path):
    text = path.read_text()
    assert _read_all(text) == _ref_read_all(text)


@pytest.mark.parametrize(
    "path", sorted(DATA.glob("*.smt2")), ids=lambda p: p.name
)
def test_single_character_edits_parse_or_raise_value_error(path):
    """Every one-character deletion, insertion or replacement either parses
    or is rejected with a ValueError, never another exception."""
    text = path.read_text()
    rng = random.Random(path.name)
    for _ in range(500):
        i = rng.randrange(len(text))
        c = rng.choice("() ;|-019axzEIS_=<\n")
        edit = rng.randrange(3)  # 0 replace, 1 delete, 2 insert
        mutant = text[:i] + ("" if edit == 1 else c) + text[i + (edit != 2):]
        try:
            parse_slcomp(mutant)
        except ValueError:
            pass
