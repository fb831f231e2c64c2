"""Guards for tooling that reaches into the library from outside ``src/``."""

import importlib.util
from pathlib import Path

import bezier_dp
import bezier_dp.cli  # noqa: F401  (library_targets reads bezier_dp.cli)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_span_targets_resolve():
    # a traced benchmark run wraps these names with getattr/setattr; a name
    # the library stops importing would break it at run time
    targets = _load_spans().library_targets(bezier_dp)
    missing = [name for owner, attr, name in targets if not callable(getattr(owner, attr, None))]
    assert targets and not missing


def test_package_all_names_resolve():
    # `from bezier_dp import *` fails on a name `__all__` lists but the
    # package no longer defines
    missing = [name for name in bezier_dp.__all__ if not hasattr(bezier_dp, name)]
    assert not missing
