"""Every name the benchmark's span tracer wraps exists in the package.

perfbench/spans.py resolves TRACED with getattr on the tropgc modules, so a
renamed or deleted name fails every traced benchmark sample. TRACED is read
with ast, not imported, so the test writes nothing under perfbench/.
"""

import ast
from pathlib import Path

import tropgc

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_names() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["TRACED"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {SPANS}")


def test_every_traced_name_resolves():
    traced = traced_names()
    assert traced
    missing = []
    for layer, names in traced.items():
        for qualname in names:
            obj = getattr(tropgc, layer, None)
            for part in qualname.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{layer}.{qualname}")
    assert missing == []
