"""Every program name the benchmark's tracer rebinds still exists.

A traced benchmark run (``perfbench/run.py --trace 1``) wraps these names in
place; one renamed or turned into a non-function breaks that run, so they
are checked here with the rest of the suite.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _timed_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # the two names Tracer.install counts but does not time
    return [(module, path) for _, module, path in tracing.TIMED] + [
        ("prefixcode.huffman", "MergeTrace.json_lines"),
        ("prefixcode.oracle", "enumerate_kraft_tight"),
    ]


@pytest.mark.parametrize("module, path", _timed_names(), ids=lambda x: x)
def test_rebound_name_resolves(module, path):
    owner = importlib.import_module(module)
    if "." in path:
        cls_name, attr = path.split(".")
        # the tracer replaces the entry in the class __dict__, so a method
        # inherited or wrapped in a descriptor would not be rebound
        assert inspect.isfunction(vars(getattr(owner, cls_name))[attr])
    else:
        assert inspect.isfunction(getattr(owner, path))
