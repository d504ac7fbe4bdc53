r"""Native problem format.

A problem file declares record sorts, inductive definitions in the
compositional template shape, exactly one entailment query, and an
optional expected status:

    data c4 { c4 next; int val; }

    pred lls(root r, seg F, src mi, tgt ma) :=
         emp /\ r=F /\ mi=ma
      \/ exists X, m1. r->c4(X, m1) * lls(X, F, m1, ma) /\ r!=F /\ mi<=m1;

    check lls(x, null, mi, ma) /\ x!=null |- llb(x, null, mi)
    expect valid

Comments run from // to end of line.  Every name must be declared before
use; a definition body must consist of the base branch followed by one
recursive branch.  Pointer and integer uses are kept disjoint, and any
mixed use is reported with its position.  Disequality is pointer-only.
Cells may list fields positionally, r->c4(X, m1), or by name,
r->c4{val: m1, next: X}; named input is normalized to declaration order.

Kinds are inferred in one pass over each definition and one over the
query.  Roles make root and seg parameters pointers and src and tgt
parameters integers.  Cell fields take the kinds their sort declares, and
the arguments of a declared predicate the kinds of its parameters.  <= and
>= make both operands integers, != makes both pointers.  An equality gives
both operands one kind, and each argument of a self-occurrence shares the
kind of the parameter at its position; both are propagated to a fixpoint.
Whatever is still unconstrained, border and trans parameters included, is a
pointer.

Problems of one family repeat the same declarations, so the parser
remembers the 64 `data` and `pred` blocks it parsed or reused last, for
the rest of the process.  A block is remembered by its source text, from
its keyword through its closing `}` or `;`, with what reading it consults
in the registry: the declaration of each sort a `data` block's fields
name, and for a `pred` block the declaration of its head cell's sort and
the parameters (hence the arity and the argument kinds) of each other
predicate it applies.  A block parses the same way wherever these agree,
so where the text repeats a remembered block and the registry still
holds what it read, the parser installs the remembered declaration and
its scanner resumes after the block, which is neither lexed nor parsed
again.  A `pred` block's well-formedness findings depend on no more than
that, so they are kept with it, and only the C3 check runs on each
registry.  Only blocks that parsed are remembered, a redeclaration is
reported before the memo is consulted, and a lexing error anywhere in the
text is reported before any other error, so every error keeps its
message and position.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from .defs import (
    InductiveDef,
    Param,
    RecBranch,
    Registry,
    Role,
    SortDecl,
    check_def,
    check_registry,
    role_problem,
)
from .syntax import (
    NULL,
    ArithEq,
    ArithLeq,
    Entailment,
    Expr,
    IntLit,
    Null,
    PointsTo,
    PredOcc,
    PtrEq,
    PtrNeq,
    PureAtom,
    SpatialAtom,
    SymbolicHeap,
    Var,
)

RESERVED = frozenset({"data", "pred", "check", "expect", "exists", "emp", "null"})


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class ProblemFile:
    registry: Registry
    query: Entailment
    expect: Optional[str] = None  # "valid" | "invalid"


# ------------------------------------------------------------------- lexing


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "punct" | "eof"
    text: str
    line: int
    col: int
    off: int  # offset in the text


# Unnamed alternatives are blanks and comments; "bad" catches any other
# character.  Punctuation is tried longest first.
_TOKEN = re.compile(
    r"[ \t\r]+|//[^\n]*|(?P<nl>\n)"
    r"|(?P<ident>[^\W\d]\w*'*)|(?P<int>-?\d+)"
    r"|(?P<punct>:=|\|-|->|/\\|\\/|!=|<=|>=|[=(){},;.*:])"
    r"|(?P<bad>.)"
)

# Builds a Token without the Python-level __new__ NamedTuple generates,
# which took a third of the lexer's time.
_new_tuple = tuple.__new__


def _scan(text: str, pos: int = 0, line: int = 1, bol: int = 0) -> Iterator[Token]:
    """The tokens of `text` from offset `pos`, then an eof token.  `pos`
    lies on line `line`, which begins at offset `bol`."""
    for m in _TOKEN.finditer(text, pos):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "nl":
            line += 1
            bol = m.end()
            continue
        start = m.start()
        if kind == "bad":
            raise ParseError(
                f"unexpected character {m.group()!r}", line, start - bol + 1
            )
        yield _new_tuple(Token, (kind, m.group(), line, start - bol + 1, start))
    yield Token("eof", "", line, len(text) - bol + 1, len(text))


# ------------------------------------------------------------ raw formulas

# Pure atoms are read uncommitted first; pointer-vs-integer classification
# happens once every kind constraint of the enclosing scope is known.


@dataclass(frozen=True)
class RawPure:
    op: str  # "=" | "!=" | "<=" | ">="
    lhs: Expr
    rhs: Expr
    line: int
    col: int


class Kinds:
    """Variable kind table of one definition or query, with conflict
    positions."""

    def __init__(self) -> None:
        self.kind: dict[str, str] = {}

    def set(self, name: str, kind: str, line: int, col: int) -> None:
        old = self.kind.setdefault(name, kind)
        if old != kind:
            raise ParseError(
                f"mixed pointer/integer use of '{name}'", line, col
            )

    def expr(self, e: Expr, kind: str, line: int, col: int) -> None:
        if isinstance(e, Var):
            self.set(e.name, kind, line, col)
        elif isinstance(e, Null) and kind != "ptr":
            raise ParseError("null used as an integer", line, col)
        elif isinstance(e, IntLit) and kind != "int":
            raise ParseError("integer literal used as a pointer", line, col)

    def of(self, e: Expr) -> Optional[str]:
        if isinstance(e, Null):
            return "ptr"
        if isinstance(e, IntLit):
            return "int"
        return self.kind.get(e.name)

    def uses(
        self,
        satoms: list[tuple[SpatialAtom, int, int]],
        raw: list[RawPure],
        reg: Registry,
    ) -> None:
        """Constrain by the cells, the occurrences of declared predicates
        and the comparisons of one formula."""
        for a, line, col in satoms:
            if isinstance(a, PointsTo):
                self.expr(a.root, "ptr", line, col)
                for (_, ft), f in zip(reg.sorts[a.sort].fields, a.fields):
                    self.expr(f, "int" if ft == "int" else "ptr", line, col)
            elif a.pred in reg.preds:  # else a self-occurrence, see classify
                for p, f in zip(reg.preds[a.pred].params, a.args):
                    self.expr(f, p.kind, line, col)
        for r in raw:
            if r.op != "=":
                kind = "ptr" if r.op == "!=" else "int"
                self.expr(r.lhs, kind, r.line, r.col)
                self.expr(r.rhs, kind, r.line, r.col)

    def classify(
        self,
        raw: list[RawPure],
        ties: Sequence[tuple[str, Expr, int, int]] = (),
    ) -> list[PureAtom]:
        """Propagate equalities and ties (a parameter name, the
        self-occurrence argument at its position, the occurrence's
        position) to a fixpoint, then commit the pure atoms; an equality
        left unconstrained is between pointers."""
        changed = True
        while changed:
            changed = False
            for name, arg, line, col in ties:
                kp, ka = self.kind.get(name), self.of(arg)
                if kp is not None:
                    changed |= ka is None
                    self.expr(arg, kp, line, col)
                elif ka is not None:
                    self.kind[name] = ka
                    changed = True
            for r in raw:
                if r.op != "=":
                    continue
                kl, kr = self.of(r.lhs), self.of(r.rhs)
                if kl is not None and kr is None:
                    self.expr(r.rhs, kl, r.line, r.col)
                    changed = True
                elif kr is not None and kl is None:
                    self.expr(r.lhs, kr, r.line, r.col)
                    changed = True
                elif kl is not None and kr is not None and kl != kr:
                    raise ParseError(
                        "equality mixes pointer and integer operands",
                        r.line,
                        r.col,
                    )
        out: list[PureAtom] = []
        for r in raw:
            if r.op == "<=":
                out.append(ArithLeq(r.lhs, r.rhs))
            elif r.op == ">=":
                out.append(ArithLeq(r.rhs, r.lhs))
            elif r.op == "!=":
                out.append(PtrNeq(r.lhs, r.rhs))
            else:
                kl = self.of(r.lhs) or self.of(r.rhs) or "ptr"
                self.expr(r.lhs, kl, r.line, r.col)
                self.expr(r.rhs, kl, r.line, r.col)
                out.append(
                    PtrEq(r.lhs, r.rhs) if kl == "ptr" else ArithEq(r.lhs, r.rhs)
                )
        return out


# --------------------------------------------------- template decomposition


def _base_atoms(params: tuple[Param, ...]) -> list[PureAtom]:
    r"""root=seg [/\ src=tgt] for roles role_problem accepts: the root
    first, one seg parameter and at most one src/tgt pair."""
    named = {p.role: Var(p.name) for p in params}
    atoms: list[PureAtom] = [PtrEq(Var(params[0].name), named[Role.SEG])]
    if Role.SRC in named:
        atoms.append(ArithEq(named[Role.SRC], named[Role.TGT]))
    return atoms


def assemble_base(
    name: str,
    params: tuple[Param, ...],
    satoms: list[SpatialAtom],
    pures: list[PureAtom],
    err: Callable[[str], Exception],
) -> None:
    r"""Check the roles, and that the base branch is exactly
    emp /\ root=seg [/\ src=tgt]."""
    problem = role_problem(name, params)
    if problem is not None:
        raise err(problem)
    if satoms:
        raise err(f"{name}: base branch must be spatially empty")
    want = _base_atoms(params)
    if Counter(pures) != Counter(want):
        raise err(
            f"{name}: base branch must be emp /\\ "
            + " /\\ ".join(map(str, want))
        )


def assemble_rec(
    name: str,
    params: tuple[Param, ...],
    exists: tuple[str, ...],
    satoms: list[SpatialAtom],
    pures: list[PureAtom],
    err: Callable[[str], Exception],
) -> RecBranch:
    """Split a recursive branch body into head cell, matrix, designated
    recursive occurrence, guard, order atom, and arithmetic side.  The
    roles must have passed assemble_base."""
    named = {p.role: Var(p.name) for p in params}
    root, seg = Var(params[0].name), named[Role.SEG]

    cells = [a for a in satoms if isinstance(a, PointsTo)]
    if len(cells) != 1 or cells[0].root != root:
        raise err(f"{name}: recursive branch needs one cell at the root")
    head = cells[0]
    occs = [a for a in satoms if isinstance(a, PredOcc)]
    self_occs = [a for a in occs if a.pred == name]
    if not self_occs:
        raise err(f"{name}: recursive branch must continue {name}")
    rec = self_occs[-1]  # earlier self occurrences belong to the matrix
    matrix = tuple(a for a in occs if a is not rec)

    guard = PtrNeq(root, seg)
    if guard not in pures:
        raise err(f"{name}: recursive branch must require {root}!={seg}")
    rest = [a for a in pures if a != guard]

    order: Optional[PureAtom] = None
    if Role.SRC in named:
        src = named[Role.SRC]
        inner = next(a for p, a in zip(params, rec.args) if p.role == Role.SRC)
        hits = [
            a
            for a in rest
            if isinstance(a, (ArithEq, ArithLeq))
            and {a.lhs, a.rhs} == {src, inner}
        ]
        if len(hits) != 1:
            raise err(f"{name}: need one order atom relating {src} and {inner}")
        order = hits[0]
        rest.remove(order)
    for a in rest:
        if not isinstance(a, (ArithEq, ArithLeq)):
            raise err(f"{name}: unexpected pointer atom {a} in recursive branch")
    return RecBranch(exists, head, matrix, rec, order, tuple(rest))


# ------------------------------------------------------------------ parser


def _reads(decl: Union[SortDecl, InductiveDef], reg: Registry) -> tuple:
    """What reading a declaration's block consults in the registry (None
    where the registry has nothing): the declarations of the sorts a
    `data` block's fields name; the declaration of a definition's head
    cell's sort and the parameters of the other predicates in its matrix.
    The block's own name is undeclared, as the parser checks first."""
    sorts, preds = reg.sorts, reg.preds
    if isinstance(decl, SortDecl):
        return tuple(
            (t, sorts.get(t)) for _, t in decl.fields if t not in ("int", decl.name)
        )
    rb = decl.rec
    return ((rb.head.sort, sorts.get(rb.head.sort)),) + tuple(
        (m.pred, d.params if (d := preds.get(m.pred)) else None)
        for m in rb.matrix
        if m.pred != decl.name
    )


class _Block(NamedTuple):
    """A remembered declaration block; see the module docstring."""

    src: str
    reads: tuple  # `_reads` when the block was parsed
    decl: Union[SortDecl, InductiveDef]
    found: tuple[str, ...]  # check_def's findings on a definition


# Recent blocks, most recent last.
_defs: deque[_Block] = deque(maxlen=64)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.scan = _scan(text)
        self.tok = next(self.scan)
        self.reg = Registry(sorts={}, preds={})
        # Arity of every predicate declared so far, the one whose body is
        # being read included.
        self.arity: dict[str, int] = {}
        # check_def's findings on every definition read so far
        self.found: dict[str, tuple[str, ...]] = {}

    # token plumbing

    def peek(self) -> Token:
        return self.tok

    def next(self) -> Token:
        t = self.tok
        self.tok = next(self.scan, t)  # eof stays put
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "eof"

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text or t.kind == "eof":
            raise self.err(f"expected {text!r}, found {t.text!r}" if t.kind != "eof"
                           else f"expected {text!r}, found end of input")
        return self.next()

    def ident(self, what: str) -> Token:
        t = self.peek()
        if t.kind != "ident":
            raise self.err(f"expected {what}, found {t.text!r}")
        if t.text in RESERVED:
            raise self.err(f"{t.text!r} is a reserved word")
        return self.next()

    def err(self, msg: str) -> ParseError:
        t = self.peek()
        return ParseError(msg, t.line, t.col)

    # file structure

    def file(self) -> ProblemFile:
        pred_pos: dict[str, Token] = {}
        query: Optional[Entailment] = None
        expect: Optional[str] = None
        while self.peek().kind != "eof":
            t = self.peek()
            if t.text == "data":
                self.sort_decl()
            elif t.text == "pred":
                pred_pos[self.pred_def()] = t
            elif t.text == "check":
                if query is not None:
                    raise self.err("a file holds exactly one check query")
                self.next()
                query = self.query()
            elif t.text == "expect":
                if expect is not None:
                    raise self.err("a file holds at most one expect line")
                self.next()
                w = self.next()
                if w.text not in ("valid", "invalid"):
                    raise ParseError(
                        "expect takes 'valid' or 'invalid'", w.line, w.col
                    )
                expect = w.text
            else:
                raise self.err(
                    f"expected 'data', 'pred', 'check' or 'expect', found {t.text!r}"
                )
        if query is None:
            t = self.peek()
            raise ParseError("missing check query", t.line, t.col)
        for problem in check_registry(self.reg, self.found.values()):
            pname = problem.split(":", 1)[0]
            at = pred_pos.get(pname, self.peek())
            raise ParseError(problem, at.line, at.col)
        return ProblemFile(self.reg, query, expect)

    def recall(self, start: Token) -> bool:
        """Install the remembered block the text repeats at `start`, if the
        registry still holds what the block read, and resume the scanner
        after it."""
        text = self.text
        # newest first: a family's next file asks for the blocks its last
        # file used, in the same order
        for i in range(len(_defs) - 1, -1, -1):
            b = _defs[i]
            if not (
                text.startswith(b.src, start.off)
                and _reads(b.decl, self.reg) == b.reads
            ):
                continue
            del _defs[i]
            _defs.append(b)
            d = b.decl
            if isinstance(d, SortDecl):
                self.reg.sorts[d.name] = d
            else:
                self.arity[d.name] = len(d.params)
                self.reg.preds[d.name] = d
                self.found[d.name] = b.found
            end = start.off + len(b.src)
            line = start.line + b.src.count("\n")
            self.scan = _scan(text, end, line, text.rfind("\n", 0, end) + 1)
            self.tok = next(self.scan)
            return True
        return False

    def remember(self, start: Token, end: Token, decl, found=()) -> None:
        """Remember the block from `start` through `end`, just parsed."""
        src = self.text[start.off:end.off + 1]  # `end` is `}` or `;`
        _defs.append(_Block(src, _reads(decl, self.reg), decl, found))

    def sort_decl(self) -> None:
        sorts = self.reg.sorts
        start = self.expect("data")
        name = self.ident("sort name")
        if name.text in sorts:
            raise ParseError(f"sort {name.text} redeclared", name.line, name.col)
        if self.recall(start):
            return
        self.expect("{")
        fields: list[tuple[str, str]] = []
        while not self.at("}"):
            target = self.peek()
            if target.text == "int":
                self.next()
            else:
                target = self.ident("field sort")
                if target.text not in sorts and target.text != name.text:
                    raise ParseError(
                        f"unknown sort {target.text!r}", target.line, target.col
                    )
            fname = self.ident("field name")
            if any(fname.text == n for n, _ in fields):
                raise ParseError(
                    f"duplicate field {fname.text!r}", fname.line, fname.col
                )
            fields.append((fname.text, target.text))
            self.expect(";")
        end = self.next()
        decl = sorts[name.text] = SortDecl(name.text, tuple(fields))
        self.remember(start, end, decl)

    def pred_def(self) -> str:
        start = self.expect("pred")
        name = self.ident("predicate name")
        if name.text in self.arity:
            raise ParseError(
                f"predicate {name.text} redeclared", name.line, name.col
            )
        if self.recall(start):
            return name.text
        self.expect("(")
        raw_params: list[tuple[Role, Token]] = []
        while True:
            role_tok = self.next()
            try:
                role = Role(role_tok.text)
            except ValueError:
                raise ParseError(
                    f"expected a role keyword, found {role_tok.text!r}",
                    role_tok.line,
                    role_tok.col,
                ) from None
            raw_params.append((role, self.ident("parameter name")))
            if not self.accept(","):
                break
        self.expect(")")
        self.expect(":=")
        self.arity[name.text] = len(raw_params)

        branches = [self.branch()]
        while self.accept("\\/"):
            branches.append(self.branch())
        semi = self.expect(";")
        if len(branches) != 2:
            raise ParseError(
                f"{name.text}: need the base branch and one recursive branch",
                semi.line,
                semi.col,
            )

        def fail(msg: str) -> Exception:
            return ParseError(msg, name.line, name.col)

        (b_ex, b_sp, b_raw), (r_ex, r_sp, r_raw) = branches
        if b_ex:
            raise fail(f"{name.text}: base branch takes no existentials")
        kinds = Kinds()
        for role, tok in raw_params:
            if role in (Role.ROOT, Role.SEG):
                kinds.set(tok.text, "ptr", tok.line, tok.col)
            elif role in (Role.SRC, Role.TGT):
                kinds.set(tok.text, "int", tok.line, tok.col)
        kinds.uses(b_sp, b_raw, self.reg)
        kinds.uses(r_sp, r_raw, self.reg)
        ties = [
            (tok.text, arg, line, col)
            for a, line, col in b_sp + r_sp
            if isinstance(a, PredOcc) and a.pred == name.text
            for (_, tok), arg in zip(raw_params, a.args)
        ]
        pure = kinds.classify(b_raw + r_raw, ties)
        params = tuple(
            Param(tok.text, role, kinds.kind.get(tok.text, "ptr"))
            for role, tok in raw_params
        )
        assemble_base(
            name.text, params, [a for a, _, _ in b_sp], pure[: len(b_raw)], fail
        )
        rec = assemble_rec(
            name.text,
            params,
            r_ex,
            [a for a, _, _ in r_sp],
            pure[len(b_raw):],
            fail,
        )
        d = self.reg.preds[name.text] = InductiveDef(name.text, params, rec)
        found = self.found[name.text] = tuple(check_def(self.reg, d))
        self.remember(start, semi, d, found)
        return name.text

    # formulas

    def branch(self):
        exists: tuple[str, ...] = ()
        if self.accept("exists"):
            names = [self.ident("existential name").text]
            while self.accept(","):
                names.append(self.ident("existential name").text)
            self.expect(".")
            exists = tuple(names)
        satoms, raw = self.heap_body()
        return exists, satoms, raw

    def heap_body(self):
        r"""spatial part, then /\-separated pure atoms.  Spatial atoms carry
        their positions for kind diagnostics."""
        satoms: list[tuple[SpatialAtom, int, int]] = []
        if not self.accept("emp"):
            satoms.append(self.spatial_atom())
            while self.accept("*"):
                satoms.append(self.spatial_atom())
        raw: list[RawPure] = []
        while self.accept("/\\"):
            raw.append(self.pure_atom())
        return satoms, raw

    def spatial_atom(self) -> tuple[SpatialAtom, int, int]:
        t = self.peek()
        root = self.term()
        if self.accept("->"):
            sort = self.ident("sort name")
            fields = self.cell_fields(sort, t)
            if not isinstance(root, (Var, Null)):
                raise ParseError("cell root must be a pointer", t.line, t.col)
            return PointsTo(root, sort.text, fields), t.line, t.col
        if self.at("("):
            if not isinstance(root, Var):
                raise ParseError("predicate name expected", t.line, t.col)
            self.expect("(")
            args = [self.term()]
            while self.accept(","):
                args.append(self.term())
            self.expect(")")
            want = self.arity.get(root.name)
            if want is None:
                raise ParseError(f"unknown predicate {root.name!r}", t.line, t.col)
            if len(args) != want:
                raise ParseError(
                    f"{root.name} expects {want} arguments", t.line, t.col
                )
            return PredOcc(root.name, tuple(args)), t.line, t.col
        raise ParseError(
            "expected a cell, a predicate occurrence, or emp", t.line, t.col
        )

    def cell_fields(self, sort: Token, at: Token) -> tuple[Expr, ...]:
        """The fields of a cell starting at `at`, in declaration order."""
        positional = self.accept("(")
        if not positional:
            self.expect("{")
        decl = self.reg.sorts.get(sort.text)
        if decl is None:
            raise ParseError(f"unknown sort {sort.text!r}", at.line, at.col)
        if positional:
            fields = [self.term()]
            while self.accept(","):
                fields.append(self.term())
            self.expect(")")
            if len(fields) != len(decl.fields):
                raise ParseError(
                    f"{sort.text} has {len(decl.fields)} fields", at.line, at.col
                )
            return tuple(fields)
        names = [n for n, _ in decl.fields]
        named: dict[str, Expr] = {}
        while True:
            f = self.ident("field name")
            self.expect(":")
            if f.text in named:
                raise ParseError(f"duplicate field {f.text!r}", f.line, f.col)
            if f.text not in names:
                raise ParseError(
                    f"{sort.text} has no field {f.text!r}", f.line, f.col
                )
            named[f.text] = self.term()
            if not self.accept(","):
                break
        self.expect("}")
        if len(named) != len(names):
            raise ParseError(
                f"{sort.text} needs all of: " + ", ".join(names), at.line, at.col
            )
        return tuple(named[n] for n in names)

    def pure_atom(self) -> RawPure:
        t = self.peek()
        lhs = self.term()
        op = self.peek()
        if op.text not in ("=", "!=", "<=", ">="):
            raise self.err(f"expected a comparison, found {op.text!r}")
        self.next()
        return RawPure(op.text, lhs, self.term(), t.line, t.col)

    def term(self) -> Expr:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return IntLit(int(t.text))
        if t.text == "null":
            self.next()
            return NULL
        name = self.ident("a term")
        return Var(name.text)

    # the query

    def query(self) -> Entailment:
        lt = self.peek()
        l_satoms, l_raw = self.heap_body()
        self.expect("|-")
        r_satoms, r_raw = self.heap_body()
        kinds = Kinds()
        kinds.uses(l_satoms + r_satoms, l_raw + r_raw, self.reg)
        pure = kinds.classify(l_raw + r_raw)
        lhs = SymbolicHeap(
            tuple(a for a, _, _ in l_satoms), tuple(pure[: len(l_raw)])
        )
        rhs = SymbolicHeap(
            tuple(a for a, _, _ in r_satoms), tuple(pure[len(l_raw):])
        )
        extra = sorted(rhs.fv() - lhs.fv())
        if extra:
            raise ParseError(
                "conclusion variables missing from the premise: "
                + ", ".join(extra),
                lt.line,
                lt.col,
            )
        return Entailment(lhs, rhs)


def parse_native(text: str) -> ProblemFile:
    p = _Parser(text)
    try:
        return p.file()
    except ParseError:
        # A lexing error anywhere in the text comes first, as it would
        # from lexing the whole text before parsing.
        for _ in p.scan:
            pass
        raise


# ---------------------------------------------------------- pretty printing


def _branch_text(d: InductiveDef) -> str:
    base = _base_atoms(d.params)
    rb = d.rec
    spatial = " * ".join(str(a) for a in (rb.head, *rb.matrix, rb.rec))
    pure = [str(PtrNeq(base[0].lhs, base[0].rhs))]
    if rb.order is not None:
        pure.append(str(rb.order))
    pure.extend(str(a) for a in rb.arith)
    ex = f"exists {', '.join(rb.exists)}. " if rb.exists else ""
    return (
        "     emp /\\ " + " /\\ ".join(map(str, base))
        + "\n  \\/ " + ex + spatial + " /\\ " + " /\\ ".join(pure) + ";"
    )


def problem_text(pf: ProblemFile) -> str:
    """Render a problem back to native syntax; parsing the result yields an
    equal ProblemFile."""
    out: list[str] = []
    for s in pf.registry.sorts.values():
        fields = " ".join(f"{t} {n};" for n, t in s.fields)
        out.append(f"data {s.name} {{ {fields} }}")
    out.append("")
    for d in pf.registry.preds.values():
        params = ", ".join(f"{p.role.value} {p.name}" for p in d.params)
        out.append(f"pred {d.name}({params}) :=")
        out.append(_branch_text(d))
        out.append("")
    out.append(
        f"check {pf.query.lhs.pretty(False)} |- {pf.query.rhs.pretty(False)}"
    )
    if pf.expect is not None:
        out.append(f"expect {pf.expect}")
    return "\n".join(out) + "\n"
