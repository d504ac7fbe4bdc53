"""SMT-LIB 2.6 subset reader for separation-logic entailment files.

Supported forms: set-logic, set-info (:status unsat|sat becomes the
expected verdict under the refutation encoding), declare-sort,
declare-datatype(s), declare-heap, declare-const, define-fun-rec bodies
built from or/exists/and/sep/pto/emp/distinct/=/<=/>=, and the two
entailment encodings found in competition files:

    (assert (not (=> A C)))            single-assert form
    (assert A) (assert (not C))        paired form

Addresses may use separate reference sorts: a field or constant declared
at a sort bound by (declare-heap (Ref T)) counts as a pointer to a T
record.  The format carries no role metadata, so definitions take their
parameter roles from comment lines

    ;; roles: lls(root, seg, src, tgt)

one per predicate.  As in the native format, a term in a position of the
other kind (an integer as a cell root, nil as an Int argument) raises
SlcompError, and so does a second declaration of a predicate, sort,
constructor, constant or address sort.  Anything outside the subset
raises UnsupportedConstruct naming the offending s-expression; a
definition without a roles line raises RoleAnnotationMissing.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from .defs import InductiveDef, Param, Registry, Role, SortDecl, check_wellformed
from .parser import ProblemFile, assemble_base, assemble_rec
from .syntax import (
    NULL,
    ArithEq,
    ArithLeq,
    Entailment,
    Expr,
    IntLit,
    PointsTo,
    PredOcc,
    PtrEq,
    PtrNeq,
    PureAtom,
    SpatialAtom,
    SymbolicHeap,
    Var,
)

Sexpr = Union[str, int, list]


class SlcompError(ValueError):
    """Malformed input within the supported subset."""


class UnsupportedConstruct(ValueError):
    def __init__(self, construct: str):
        super().__init__(f"unsupported construct: {construct}")
        self.construct = construct


class RoleAnnotationMissing(ValueError):
    def __init__(self, pred: str):
        super().__init__(
            f"no ';; roles: {pred}(...)' annotation for predicate {pred}"
        )
        self.pred = pred


def _show(e: Sexpr) -> str:
    if isinstance(e, list):
        return "(" + " ".join(_show(x) for x in e) + ")"
    return str(e)


def _need(ok: object, what: str, e: Sexpr) -> None:
    if not ok:
        raise SlcompError(f"bad {what} {_show(e)}")


def _refuse_redeclared(name: str, declared: dict, what: str) -> None:
    """Refuse a second declaration of `name`; `declared` holds the first ones."""
    if name in declared:
        raise SlcompError(f"{what} {name} redeclared")


def _pairs(e: Sexpr, second: type = str) -> bool:
    """Is `e` a list of (symbol x) pairs with x a `second`?"""
    return isinstance(e, list) and all(
        isinstance(p, list) and len(p) == 2 and isinstance(p[0], str)
        and isinstance(p[1], second)
        for p in e
    )


# ------------------------------------------------------------------ reading


# One token per match: a comment, blanks, a parenthesis, a |quoted| symbol,
# a '|' that opens no quoted symbol, an integer, or any other atom.
_SEXPR_TOKEN = re.compile(
    r";[^\n]*|\s+|(?P<open>\()|(?P<close>\))|\|(?P<quoted>[^|]*)\||(?P<lone>\|)"
    r"|(?P<int>-?\d+(?![^\s();]))|(?P<atom>[^\s();|][^\s();]*)"
)


def _read_all(text: str) -> list[Sexpr]:
    """The S-expressions of `text`. A |quoted| symbol is always a symbol,
    even when it reads like a parenthesis or a number."""
    out: list[Sexpr] = []
    stack: list[list] = []
    for m in _SEXPR_TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "open":
            stack.append([])
            continue
        if kind == "close":
            if not stack:
                raise SlcompError("unbalanced ')'")
            x: Sexpr = stack.pop()
        elif kind == "lone":
            raise SlcompError("unterminated |..| symbol")
        else:
            x = int(m.group()) if kind == "int" else m.group(kind)
        (stack[-1] if stack else out).append(x)
    if stack:
        raise SlcompError("unbalanced '('")
    return out


def _roles_comments(text: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for m in re.finditer(
        r"^\s*;;\s*roles:\s*([A-Za-z_]\w*)\s*\(([^)]*)\)", text, re.M
    ):
        out[m.group(1)] = [w.strip() for w in m.group(2).split(",") if w.strip()]
    return out


# ---------------------------------------------------------------- translation


class _Reader:
    def __init__(self, text: str):
        self.forms = _read_all(text)
        self.roles = _roles_comments(text)
        self.sort_fields: dict[str, list[tuple[str, str]]] = {}  # raw targets
        self.ctor_sort: dict[str, str] = {}
        self.heap_map: dict[str, str] = {}  # address sort -> record sort
        self.const_kind: dict[str, str] = {}
        self.param_kinds: dict[str, tuple[str, ...]] = {}  # per definition
        self.defs: list[Sexpr] = []
        self.asserts: list[Sexpr] = []
        self.expect: Optional[str] = None

    # -- pass 1: collect declarations

    def collect(self) -> None:
        for form in self.forms:
            if not isinstance(form, list) or not form:
                raise UnsupportedConstruct(_show(form))
            head = form[0]
            if head in ("set-logic", "check-sat", "exit", "declare-heap"):
                if head == "declare-heap":
                    _need(_pairs(form[1:]), "heap declaration", form)
                    for ref, record in form[1:]:
                        _refuse_redeclared(ref, self.heap_map, "address sort")
                        self.heap_map[ref] = record
            elif head == "set-info":
                if len(form) == 3 and form[1] == ":status" and isinstance(form[2], str):
                    self.expect = {"unsat": "valid", "sat": "invalid"}.get(form[2])
            elif head == "declare-sort":
                pass  # address sorts carry no structure of their own
            elif head == "declare-datatype":
                _need(len(form) == 3 and isinstance(form[1], str), "datatype", form)
                self.datatype(form[1], form[2])
            elif head == "declare-datatypes":
                _need(len(form) == 3, "datatypes", form)
                names, bodies = form[1:]
                _need(
                    _pairs(names, int) and isinstance(bodies, list)
                    and len(names) == len(bodies),
                    "datatypes", form,
                )
                for (name, _), body in zip(names, bodies):
                    self.datatype(name, body)
            elif head == "declare-const":
                _need(len(form) == 3 and isinstance(form[1], str), "constant", form)
                _refuse_redeclared(form[1], self.const_kind, "constant")
                self.const_kind[form[1]] = "int" if form[2] == "Int" else "ptr"
            elif head == "define-fun-rec":
                self.defs.append(form)
            elif head == "assert":
                _need(len(form) == 2, "assert", form)
                self.asserts.append(form[1])
            else:
                raise UnsupportedConstruct(_show(form))

    def datatype(self, name: str, ctors: Sexpr) -> None:
        if not (isinstance(ctors, list) and len(ctors) == 1):
            raise UnsupportedConstruct(_show(ctors))
        ctor = ctors[0]
        _need(
            isinstance(ctor, list) and ctor and isinstance(ctor[0], str)
            and _pairs(ctor[1:]),
            "constructor", ctor,
        )
        _refuse_redeclared(name, self.sort_fields, "sort")
        _refuse_redeclared(ctor[0], self.ctor_sort, "constructor")
        self.ctor_sort[ctor[0]] = name
        self.sort_fields[name] = [(f, t) for f, t in ctor[1:]]

    # -- pass 2: resolve sorts, then definitions, then the query

    def field_target(self, raw: str) -> str:
        if raw == "Int":
            return "int"
        if raw in self.heap_map:
            return self.heap_map[raw]
        if raw in self.sort_fields:
            return raw
        raise SlcompError(f"field sort {raw} is neither Int nor a record sort")

    def registry(self) -> Registry:
        sorts = {
            name: SortDecl(
                name, tuple((f, self.field_target(t)) for f, t in fields)
            )
            for name, fields in self.sort_fields.items()
        }
        reg = Registry(sorts=sorts, preds={})
        for form in self.defs:
            self.definition(form, reg)
        problems = check_wellformed(reg)
        if problems:
            raise SlcompError("; ".join(problems))
        return reg

    def definition(self, form: Sexpr, reg: Registry) -> None:
        if len(form) != 5 or form[3] != "Bool":
            raise UnsupportedConstruct(_show(form))
        _, name, sig, _, body = form
        _need(isinstance(name, str) and _pairs(sig), "definition header", form[:3])
        _refuse_redeclared(name, reg.preds, "predicate")
        role_words = self.roles.get(name)
        if role_words is None:
            raise RoleAnnotationMissing(name)
        if len(role_words) != len(sig):
            raise SlcompError(
                f"{name}: roles annotation names {len(role_words)} parameters,"
                f" the definition has {len(sig)}"
            )
        params = []
        env: dict[str, str] = {}
        for (pname, psort), word in zip(sig, role_words):
            try:
                role = Role(word)
            except ValueError:
                raise SlcompError(f"{name}: unknown role {word!r}") from None
            kind = "int" if psort == "Int" else "ptr"
            env[pname] = kind
            params.append(Param(pname, role, kind))
        self.param_kinds[name] = tuple(p.kind for p in params)

        if not (isinstance(body, list) and body and body[0] == "or"):
            raise UnsupportedConstruct(_show(body))
        if len(body) != 3:
            raise SlcompError(f"{name}: need exactly a base and a recursive branch")
        branches = body[1:]
        rec_idx = 1 if self.has_pto(branches[1]) else 0
        if not self.has_pto(branches[rec_idx]) or self.has_pto(
            branches[1 - rec_idx]
        ):
            raise SlcompError(f"{name}: need one spatial and one empty branch")

        def err(msg: str) -> Exception:
            return SlcompError(msg)

        base_sp, base_pure = self.formula(branches[1 - rec_idx], env, reg)
        assemble_base(name, tuple(params), base_sp, base_pure, err)

        rec_body = branches[rec_idx]
        exists: tuple[str, ...] = ()
        env_rec = dict(env)
        if isinstance(rec_body, list) and rec_body and rec_body[0] == "exists":
            _need(len(rec_body) == 3 and _pairs(rec_body[1]), "exists", rec_body[:2])
            binders = rec_body[1]
            exists = tuple(b[0] for b in binders)
            for bname, bsort in binders:
                env_rec[bname] = "int" if bsort == "Int" else "ptr"
            rec_body = rec_body[2]
        rec_sp, rec_pure = self.formula(rec_body, env_rec, reg, pred=name)
        rec = assemble_rec(name, tuple(params), exists, rec_sp, rec_pure, err)
        reg.preds[name] = InductiveDef(name, tuple(params), rec)

    def has_pto(self, e: Sexpr) -> bool:
        if isinstance(e, list):
            return e[:1] == ["pto"] or any(self.has_pto(x) for x in e)
        return False

    # formula flattening

    def term(self, e: Sexpr, env: dict[str, str]) -> Expr:
        if isinstance(e, int):
            return IntLit(e)
        if isinstance(e, list):
            if len(e) == 2 and e[0] == "-" and isinstance(e[1], int):
                return IntLit(-e[1])
            if e[:2] == ["as", "nil"]:
                return NULL
            raise UnsupportedConstruct(_show(e))
        if e in ("nil", "null"):
            return NULL
        if e in env or e in self.const_kind:
            return Var(e)
        raise SlcompError(f"undeclared constant {e}")

    def kind_of(self, x: Expr, env: dict[str, str]) -> str:
        if isinstance(x, IntLit):
            return "int"
        if isinstance(x, Var):
            return env.get(x.name) or self.const_kind[x.name]
        return "ptr"

    def check_kind(self, x: Expr, kind: str, env: dict[str, str], what: str, e: Sexpr) -> None:
        """Refuse a term of the other kind than its position takes."""
        if self.kind_of(x, env) != kind:
            want = "an Int" if kind == "int" else "a pointer"
            raise SlcompError(f"{what} takes {want}, not {x}: {_show(e)}")

    def formula(
        self,
        e: Sexpr,
        env: dict[str, str],
        reg: Registry,
        pred: Optional[str] = None,
    ) -> tuple[list[SpatialAtom], list[PureAtom]]:
        satoms: list[SpatialAtom] = []
        pures: list[PureAtom] = []
        self.walk(e, env, reg, pred, satoms, pures)
        return satoms, pures

    def walk(self, e, env, reg, pred, satoms, pures) -> None:
        if e == "true" or e == "emp":
            return
        if not isinstance(e, list) or not e:
            raise UnsupportedConstruct(_show(e))
        head = e[0]
        if head in ("and", "sep"):
            for x in e[1:]:
                self.walk(x, env, reg, pred, satoms, pures)
        elif head == "_" and e[1:2] == ["emp"]:
            return
        elif head == "pto":
            if len(e) != 3 or not isinstance(e[2], list) or not e[2]:
                raise SlcompError(f"bad points-to {_show(e)}")
            root = self.term(e[1], env)
            ctor, *vals = e[2]
            sort = self.ctor_sort.get(ctor) if isinstance(ctor, str) else None
            if sort is None:
                raise SlcompError(f"unknown constructor {_show(ctor)}")
            fields = tuple(self.term(v, env) for v in vals)
            if len(fields) != len(self.sort_fields[sort]):
                raise SlcompError(f"{ctor} takes {len(self.sort_fields[sort])} fields")
            self.check_kind(root, "ptr", env, "points-to root", e)
            for (fname, ftype), x in zip(reg.sorts[sort].fields, fields):
                kind = "int" if ftype == "int" else "ptr"
                self.check_kind(x, kind, env, f"field {fname}", e)
            satoms.append(PointsTo(root, sort, fields))
        elif head == "distinct":
            args = [self.term(x, env) for x in e[1:]]
            if len(args) < 2:
                raise SlcompError(f"bad distinct {_show(e)}")
            if any(self.kind_of(x, env) == "int" for x in args):
                raise UnsupportedConstruct(_show(e))  # no integer disequality
            for i in range(len(args)):
                for j in range(i + 1, len(args)):
                    pures.append(PtrNeq(args[i], args[j]))
        elif head == "=":
            if len(e) != 3:
                raise SlcompError(f"bad equality {_show(e)}")
            a, b = self.term(e[1], env), self.term(e[2], env)
            ka, kb = self.kind_of(a, env), self.kind_of(b, env)
            if ka != kb:
                raise SlcompError(f"equality mixes sorts: {_show(e)}")
            pures.append(PtrEq(a, b) if ka == "ptr" else ArithEq(a, b))
        elif head in ("<=", ">="):
            if len(e) != 3:
                raise SlcompError(f"bad comparison {_show(e)}")
            a, b = self.term(e[1], env), self.term(e[2], env)
            if "ptr" in (self.kind_of(a, env), self.kind_of(b, env)):
                raise SlcompError(f"pointer operand in arithmetic: {_show(e)}")
            pures.append(ArithLeq(a, b) if head == "<=" else ArithLeq(b, a))
        elif isinstance(head, str) and (head == pred or head in reg.preds):
            args = tuple(self.term(x, env) for x in e[1:])
            kinds = self.param_kinds[head]
            if len(args) != len(kinds):
                raise SlcompError(f"{head} expects {len(kinds)} arguments")
            for i, (x, kind) in enumerate(zip(args, kinds)):
                self.check_kind(x, kind, env, f"argument {i + 1} of {head}", e)
            satoms.append(PredOcc(head, args))
        else:
            raise UnsupportedConstruct(_show(e))

    def query(self, reg: Registry) -> Entailment:
        a = self.asserts
        if len(a) == 1:
            inner = a[0]
            if (
                isinstance(inner, list)
                and inner[:1] == ["not"]
                and len(inner) == 2
                and isinstance(inner[1], list)
                and inner[1][:1] == ["=>"]
                and len(inner[1]) == 3
            ):
                lhs_e, rhs_e = inner[1][1], inner[1][2]
            else:
                raise UnsupportedConstruct(
                    "entailment encoding: " + _show(inner)
                )
        elif len(a) == 2:
            negated = [
                x for x in a if isinstance(x, list) and x[:1] == ["not"] and len(x) == 2
            ]
            positive = [x for x in a if x not in negated]
            if len(negated) != 1 or len(positive) != 1:
                raise UnsupportedConstruct("entailment encoding: need A and (not C)")
            lhs_e, rhs_e = positive[0], negated[0][1]
        else:
            raise UnsupportedConstruct(
                f"entailment encoding: {len(a)} assert forms"
            )
        env: dict[str, str] = {}
        ls, lp = self.formula(lhs_e, env, reg)
        rs, rp = self.formula(rhs_e, env, reg)
        return Entailment(
            SymbolicHeap(tuple(ls), tuple(lp)), SymbolicHeap(tuple(rs), tuple(rp))
        )


def parse_slcomp(text: str) -> ProblemFile:
    r = _Reader(text)
    r.collect()
    reg = r.registry()
    query = r.query(reg)
    extra = sorted(query.rhs.fv() - query.lhs.fv())
    if extra:
        raise SlcompError(
            "conclusion variables missing from the premise: " + ", ".join(extra)
        )
    return ProblemFile(reg, query, r.expect)
