"""The benchmark tracer (perf/spans.py) wraps the module-global bindings and
class methods listed in its TRACE_POINTS, looking each one up in its owner's
``__dict__``. A refactor that drops or moves one of them breaks every traced
benchmark run, so each entry must resolve here."""

import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perf" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perf_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves(spans):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in spans.TRACE_POINTS
        if not callable(owner.__dict__.get(attr))
    ]
    assert not missing, f"trace points without a binding: {missing}"


def test_install_and_uninstall_restore_every_binding(spans):
    before = [owner.__dict__[attr] for owner, attr, _, _ in spans.TRACE_POINTS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = [owner.__dict__[attr] for owner, attr, _, _ in spans.TRACE_POINTS]
    finally:
        tracer.uninstall()
    after = [owner.__dict__[attr] for owner, attr, _, _ in spans.TRACE_POINTS]
    assert all(w is not b for w, b in zip(wrapped, before))
    assert all(a is b for a, b in zip(after, before))
