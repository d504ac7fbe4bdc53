"""The benchmark's tracer wraps sepent functions by name; every name it
wraps must still exist, so a refactor that drops one fails here."""

import importlib.util
import io
from pathlib import Path
from types import SimpleNamespace

from sepent import cli, engine, export, normalize, oracle, pure

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_name_it_needs():
    tracer = _load_tracer()
    mods = SimpleNamespace(
        cli=cli, engine=engine, pure=pure, oracle=oracle, export=export
    )
    before = {
        (name, attr): getattr(mod, attr)
        for name, mod in vars(mods).items()
        for attr in dir(mod)
    }
    t = tracer.Tracer()
    try:
        tracer.instrument(t, mods)
        out = io.StringIO()
        code = cli.run_cli(
            ["--input", str(ROOT / "tests" / "data" / "golden.sep"), "--quiet"],
            out=out,
        )
    finally:
        t.restore()
    assert (code, out.getvalue()) == (0, "VALID\n")
    assert {"cli", "parser", "prove", "select", "pure"} <= {s.layer for s in t.spans}
    after = {(name, attr): getattr(getattr(mods, name), attr) for name, attr in before}
    assert after == before


def test_engine_keeps_the_site_searches_the_tracer_wraps():
    # the engine calls neither, but the tracer wraps both by name there
    assert engine.subst_site is normalize.subst_site
    assert engine.lbase_site is normalize.lbase_site
