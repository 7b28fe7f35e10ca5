"""The benchmark's tracer self-test, run with the unit tests.

It installs every tracer binding and pins the constant-q call structure of
one B-scale quasi-norm, so a refactor that renames a traced function or
changes that structure fails here, not only in a traced benchmark run.
"""

import importlib
import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_self_test(monkeypatch):
    # import without writing bytecode: the test only reads perfbench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    assert worker.self_test() == []
