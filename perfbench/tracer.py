"""Outside-in tracer: spans around the calls into each layer of sepent.

The tracer replaces module attributes with wrappers, at the name the
calling code looks up (`sepent.engine.normalize_step` is what
`engine._norm_choice` calls, `sepent.cli.parse_native` is what the CLI
calls), so the program itself is unchanged.  Spans are kept in memory;
self time is computed afterwards as a span's duration minus the part of
it its child spans cover.  A layer already open on the stack is not
entered again, so calls a layer makes to itself are part of its own span.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter
from typing import Callable, Optional


class Span:
    __slots__ = ("layer", "start", "end", "parent")

    def __init__(self, layer: str, start: float, end: float, parent: Optional[int]):
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent


def layer_times(spans: list[Span]) -> dict[str, tuple[float, float, int]]:
    """Per layer: (total time, self time, number of spans)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    out: dict[str, list] = {}
    for i, s in enumerate(spans):
        acc = out.setdefault(s.layer, [0.0, 0.0, 0])
        acc[0] += s.end - s.start
        acc[1] += s.end - s.start - child[i]
        acc[2] += 1
    return {k: (v[0], v[1], v[2]) for k, v in out.items()}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._open: Counter[str] = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(layer, 0.0, 0.0, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._open[layer] += 1
        span.start = perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        self._open[span.layer] -= 1

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Time calls to owner.attr as spans of `layer`; `before(args)` and
        `after(args, result)` run outside the span and only for calls from
        outside the layer."""
        orig = getattr(owner, attr)

        def traced(*args, **kwargs):
            if self._open[layer]:
                return orig(*args, **kwargs)
            if before is not None:
                before(args)
            span = self._enter(layer)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._exit(span)
            if after is not None:
                after(args, result)
            return result

        self._patch(owner, attr, orig, traced)

    def wrap_iter(
        self, owner: object, attr: str, layer: str, item: Optional[Callable] = None
    ) -> None:
        """Like wrap for a generator function: each step of the iteration
        is one span, so only the work of producing items is counted."""
        orig = getattr(owner, attr)

        def traced(*args, **kwargs):
            it = orig(*args, **kwargs)
            while True:
                span = self._enter(layer)
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(span)
                if item is not None:
                    item(value)
                yield value

        self._patch(owner, attr, orig, traced)

    def _patch(self, owner: object, attr: str, orig: object, new: object) -> None:
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)


# ---------------------------------------------------------------- layers


_PURE_ENTRIES = (
    "satisfiable",
    "entails",
    "entails_all",
    "status_of_pair",
    "arith_model",
    "pointer_model",
)


def instrument(t: Tracer, m) -> None:
    """Wrap every layer entry point of a freshly imported sepent (`m` holds
    the modules cli, engine, pure, oracle and export)."""
    seen: set = set()
    c = t.counts

    def count(key: str, n: int = 1) -> None:
        c[key] += n

    def pure_call(name: str) -> Callable:
        def before(args) -> None:
            key = (name, args)
            count("pure.repeats", key in seen)
            seen.add(key)

        return before

    t.wrap(m.cli, "run_cli", "cli")
    for name in ("parse_native", "parse_slcomp"):
        t.wrap(m.cli, name, "parser")
    for owner in (m.engine, m.cli):
        t.wrap(
            owner, "prove", "prove",
            after=lambda a, v: count("engine.nodes", len(v.tree.nodes)),
        )
    t.wrap(m.engine, "is_closed", "select")
    t.wrap(
        m.engine, "normalize_step", "normalize",
        after=lambda a, step: count("normalize.steps", step is not None),
    )
    for name in ("subst_site", "lbase_site"):
        t.wrap(m.engine, name, "normalize")
    t.wrap(
        m.engine, "link_back", "link_back",
        after=lambda a, link: count("link_back.links", link is not None),
    )
    t.wrap(m.engine, "_expand", "expand")
    t.wrap(
        m.engine, "check_cyclic_soundness", "soundness",
        before=lambda a: count(
            "soundness.buds", sum(n.status == "bud" for n in a[0].nodes.values())
        ),
    )
    t.wrap(
        m.engine, "_leaf_witness", "countermodel",
        after=lambda a, w: count("countermodel.lifted", w is not None),
    )
    for name in _PURE_ENTRIES:
        t.wrap(m.pure, name, "pure", before=pure_call(name))
    for owner in (m.oracle, m.cli):
        for name in ("oracle_entails", "confirm_countermodel"):
            t.wrap(owner, name, "oracle")
    t.wrap_iter(m.oracle, "models_of", "oracle.enum", item=lambda _: count("oracle.models"))
    t.wrap(m.oracle, "holds", "oracle.holds")
    for owner in (m.export, m.cli):
        t.wrap(
            owner, "export_proof", "export",
            after=lambda a, text: count("export.bytes", len(text.encode("utf-8"))),
        )


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced round, as (value, unit)."""
    lt = layer_times(t.spans)

    def total(layer: str) -> float:
        return lt.get(layer, (0.0, 0.0, 0))[0]

    def own(layer: str) -> float:
        return lt.get(layer, (0.0, 0.0, 0))[1]

    def calls(layer: str) -> int:
        return lt.get(layer, (0.0, 0.0, 0))[2]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = t.counts
    s, n, one = "s", "count", "1"
    return {
        "parser.s": (total("parser"), s),
        "parser.calls": (calls("parser"), n),
        "cli.self_s": (own("cli"), s),
        "prove.s": (total("prove"), s),
        "prove.calls": (calls("prove"), n),
        "prove.self_s": (own("prove"), s),
        "prove.attributed_share": (
            ratio(total("prove") - own("prove"), total("prove")), one
        ),
        "engine.nodes": (c["engine.nodes"], n),
        "expand.s": (total("expand"), s),
        "normalize.s": (total("normalize"), s),
        "normalize.calls": (calls("normalize"), n),
        "normalize.steps": (c["normalize.steps"], n),
        "select.self_s": (own("select"), s),
        "select.calls": (calls("select"), n),
        "link_back.s": (total("link_back"), s),
        "link_back.calls": (calls("link_back"), n),
        "link_back.links": (c["link_back.links"], n),
        "link_back.link_ratio": (ratio(c["link_back.links"], calls("link_back")), one),
        "pure.s": (total("pure"), s),
        "pure.calls": (calls("pure"), n),
        "pure.repeat_ratio": (ratio(c["pure.repeats"], calls("pure")), one),
        "soundness.s": (total("soundness"), s),
        "soundness.buds": (c["soundness.buds"], n),
        "countermodel.s": (total("countermodel"), s),
        "countermodel.lifted": (c["countermodel.lifted"], n),
        "oracle.s": (total("oracle"), s),
        "oracle.enum_s": (total("oracle.enum"), s),
        "oracle.models": (c["oracle.models"], n),
        "oracle.holds_s": (total("oracle.holds"), s),
        "oracle.holds_calls": (calls("oracle.holds"), n),
        "export.s": (total("export"), s),
        "export.bytes": (c["export.bytes"], "bytes"),
    }
