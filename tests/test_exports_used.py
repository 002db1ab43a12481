"""Every public name has a caller outside the tests.

A public name is one in tropgc.__all__, or a top-level function or class
of a module of src/tropgc whose name does not start with "_". A caller is
a name or attribute in the syntax tree (not a comment or a string) of a
module of src/tropgc other than __init__.py, away from the top-level
definition of the name itself; or of a script under scripts/; or an entry
of TRACED in perfbench/spans.py, whose spans wrap the name. A name that
only tests reach belongs in the tests.

A public class's members are held to the same rule: each method, property
and annotated field whose name does not start with "_" must be read as an
attribute (obj.name, loaded) in one of those modules or scripts, the
class's own methods included, or be the member that a TRACED entry
Class.member wraps.

That scan matches attribute names only, so a field passes when the same
name is read on some other object. The result records are also checked at
run time: every field of each must be read while the command line runs.
"""

import ast
import dataclasses
import json
from pathlib import Path

import tropgc
from tropgc.cli import main

from .test_cli import FIVE_CHAMBER_FILE
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


def caller_paths() -> list[Path]:
    paths = [p for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"]
    return paths + sorted((ROOT / "scripts").glob("*.py"))


def callers() -> set[str]:
    names = set().union(*map(used_names, caller_paths()))
    for qualnames in traced_names().values():
        names.update(q.split(".")[0] for q in qualnames)
    return names


def public_members() -> list[str]:
    """Each public class's public methods, properties and annotated
    fields, as module.Class.member."""
    members = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (not isinstance(node, ast.ClassDef)
                    or node.name.startswith("_")):
                continue
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    name = sub.name
                elif (isinstance(sub, ast.AnnAssign)
                      and isinstance(sub.target, ast.Name)):
                    name = sub.target.id
                else:
                    continue
                if not name.startswith("_"):
                    members.append(f"{path.stem}.{node.name}.{name}")
    return members


def attributes_read() -> set[str]:
    """Attributes loaded in the callers, and the members TRACED wraps."""
    names = {sub.attr for path in caller_paths()
             for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(sub, ast.Attribute)
             and isinstance(sub.ctx, ast.Load)}
    for qualnames in traced_names().values():
        names.update(q.rpartition(".")[2] for q in qualnames if "." in q)
    return names


def test_every_export_has_a_caller_outside_tests():
    names = callers()
    assert [n for n in public_names()
            if n.rpartition(".")[2] not in names] == []


def test_every_public_member_is_read_outside_tests():
    names = attributes_read()
    assert [m for m in public_members()
            if m.rpartition(".")[2] not in names] == []


RECORDS = (tropgc.HomologyReport, tropgc.DecompositionReport,
           tropgc.ChamberCensus, tropgc.PageTable, tropgc.FilteredComplex)


def test_every_record_field_is_read_by_the_command_line(monkeypatch, capsys,
                                                        tmp_path):
    read = set()
    for cls in RECORDS:
        def getattribute(self, name, cls=cls):
            read.add(f"{cls.__name__}.{name}")
            return object.__getattribute__(self, name)
        monkeypatch.setattr(cls, "__getattribute__", getattribute)
    path = tmp_path / "filtration.json"
    path.write_text(json.dumps(FIVE_CHAMBER_FILE))
    homology = ["homology", "--g", "1", "--weights", "1,1,1", "--kind"]
    runs = ([["chambers", "enumerate", "--g", "1", "--n", "3", "--orbits"],
             ["spectral", "--input", str(path), "--all-pages"],
             ["homology", "--g", "1", "--weights", "391/900,391/900,391/900",
              "--kind", "relative", "--lower", "1/3,1/3,33/100"]]
            + [homology + [kind] for kind in ("graph", "cellular", "a-part",
                                               "b-part")])
    for argv in runs:
        assert main(argv) == 0, argv
    capsys.readouterr()
    fields = {f"{cls.__name__}.{field.name}"
              for cls in RECORDS for field in dataclasses.fields(cls)}
    assert sorted(fields - read) == []
