"""The benchmark tracer (perf/spans.py) wraps the module-global bindings and
class methods listed in its TRACE_POINTS, looking each one up in its owner's
``__dict__``. A refactor that drops or moves one of them breaks every traced
benchmark run, so each entry must resolve here. Conversely, an import that
only the tracer reads is kept with ``# noqa: F401``, and each such binding
must be a trace point, so that it goes when the tracer drops it."""

import ast
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perf" / "spans.py"
SRC = Path(__file__).resolve().parents[1] / "src" / "dpquantiles"


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


def test_every_unused_import_is_a_trace_point(spans):
    # an import kept only for the tracer goes when the tracer drops it
    points = {(owner.__name__, attr) for owner, attr, _, _ in spans.TRACE_POINTS}
    kept = []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                kept += [
                    (f"dpquantiles.{path.stem}", alias.asname or alias.name)
                    for alias in node.names
                    if "# noqa: F401" in lines[alias.lineno - 1]
                ]
    assert kept, "no `# noqa: F401` binding found: the scan no longer reads the sources"
    strays = [f"{module}.{name}" for module, name in kept if (module, name) not in points]
    assert not strays, f"`# noqa: F401` bindings that no trace point names: {strays}"
