"""Every public name has a caller outside the tests.

A public name is one in tropgc.__all__, or a top-level function or class
of a module of src/tropgc whose name does not start with "_". A caller is
a name or attribute in the syntax tree (not a comment or a string) of a
module of src/tropgc other than __init__.py, away from the top-level
definition of the name itself; or of a script under scripts/; or an entry
of TRACED in perfbench/spans.py, whose spans wrap the name. A name that
only tests reach belongs in the tests.
"""

import ast
from pathlib import Path

import tropgc

from .test_perfbench_names import traced_names

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tropgc"


def used_names(path: Path) -> set[str]:
    """Names read and attributes used in the file, leaving out each
    top-level function's or class's uses of its own name."""
    used = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        names = {sub.attr for sub in ast.walk(node)
                 if isinstance(sub, ast.Attribute)}
        names.update(sub.id for sub in ast.walk(node)
                     if isinstance(sub, ast.Name)
                     and isinstance(sub.ctx, ast.Load))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.discard(node.name)
        used |= names
    return used


def public_names() -> list[str]:
    """The names of tropgc.__all__, then each module's public top-level
    functions and classes as module.name."""
    names = list(tropgc.__all__)
    for path in sorted(PACKAGE.glob("*.py")):
        names += [f"{path.stem}.{node.name}"
                  for node in ast.parse(path.read_text(encoding="utf-8")).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")]
    return names


def callers() -> set[str]:
    paths = [p for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"]
    paths += sorted((ROOT / "scripts").glob("*.py"))
    names = set().union(*(used_names(p) for p in paths))
    for qualnames in traced_names().values():
        names.update(q.split(".")[0] for q in qualnames)
    return names


def test_every_export_has_a_caller_outside_tests():
    names = callers()
    assert [n for n in public_names()
            if n.rpartition(".")[2] not in names] == []
