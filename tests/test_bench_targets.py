"""The benchmark's tracer wraps package functions by name.

``bench/tracer.py`` lists them in ``TARGETS``.  A renamed or deleted target
does not stop a traced run: the layer metrics that need it come out as
null.  These tests read the list without importing or changing ``bench/``
and fail as soon as a refactor breaks a name the tracer relies on.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_targets():
    """(module, attribute, role) of each entry of TARGETS, from the source."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            entries = []
            for entry in node.value.elts:
                module, attr, _, role = (ast.literal_eval(e) if isinstance(e, ast.Constant)
                                         else None for e in entry.elts[:4])
                entries.append((module, attr, role))
            return entries
    raise AssertionError(f"no TARGETS assignment in {TRACER}")


def test_every_tracer_target_is_a_package_function():
    targets = tracer_targets()
    assert targets
    for module, attr, _ in targets:
        fn = getattr(importlib.import_module(f"consolidate.{module}"), attr, None)
        assert callable(fn), f"consolidate.{module}.{attr} is not a function"


def test_the_traced_table_cache_reports_its_hits():
    cached = [(module, attr) for module, attr, role in tracer_targets() if role == "table_cache"]
    assert ("metrics", "_policy_table") in cached
    for module, attr in cached:
        fn = getattr(importlib.import_module(f"consolidate.{module}"), attr)
        assert callable(getattr(fn, "cache_info", None)), f"{module}.{attr} has no cache_info"
