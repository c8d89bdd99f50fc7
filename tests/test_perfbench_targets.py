"""The benchmark's traced run wraps package functions by name
(``perfbench/spans.py``).  A refactor that deletes or renames one of them
only shows up there as a missing layer, so check here that every wrapped
name still resolves."""

import importlib
import pathlib
import runpy

from supportlab import verify

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves_in_the_package():
    # run_path compiles the source in memory and writes no bytecode beside it.
    spans = runpy.run_path(str(SPANS))
    names = [(module, attr) for module, attr, *_ in spans["TARGETS"]]
    names += [("verify", attr) for attr in spans["VERIFY_CHECKS"]]
    assert len(names) > 10
    missing = [f"{module}.{attr}" for module, attr in names
               if not callable(getattr(importlib.import_module(f"supportlab.{module}"),
                                       attr, None))]
    assert missing == []


def test_run_all_calls_exactly_the_traced_verify_checks(monkeypatch):
    # Every check run_all calls must be a traced verify layer, and every
    # traced check must be called.
    spans = runpy.run_path(str(SPANS))
    called = []

    def stub(attr):
        def check(*args, **kwargs):
            called.append(attr)
            return verify.CheckResult(attr, True, "")
        return check

    for attr in dir(verify):
        if attr.startswith("check_") and callable(getattr(verify, attr)):
            monkeypatch.setattr(verify, attr, stub(attr))
    verify.run_all()
    assert sorted(called) == sorted(spans["VERIFY_CHECKS"])
