"""Every entry point the benchmark tracer wraps must exist under its name.

``perfbench/spans.py`` lists them in ``ENTRY_POINTS`` as (metric, module,
owner, attribute); ``Tracer.install`` looks each one up by name, so deleting
or renaming one breaks traced benchmark runs.  The list is read as a literal,
without importing the benchmark code.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def entry_points():
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "ENTRY_POINTS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("ENTRY_POINTS not found in %s" % SPANS)


def test_every_entry_point_resolves():
    points = entry_points()
    assert points
    missing = []
    for name, mod, owner, attr in points:
        module = importlib.import_module("drinfeld." + mod)
        if owner is None:
            ok = callable(getattr(module, attr, None))
        else:
            ok = attr in vars(getattr(module, owner, object))
        if not ok:
            missing.append((name, mod, owner, attr))
    assert missing == []
