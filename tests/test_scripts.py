"""Smoke tests of the example scripts: each runs to completion in a fresh
cache and prints its headline result. The frontier script's pin check is
tested on its own, since the full run takes 23 to 30 s (two runs on a shared
2-CPU host)."""

import hashlib
import importlib.util
import multiprocessing
import os
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from tropgc import WeightDatum, enumerate_stable_graphs, enumeration

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, cache: Path, *args: str) -> list[str]:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, TROPGC_CACHE=str(cache),
               PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("name,pinned", [
    ("run_five_chamber.py", "  dim H^3(M_{1,3};Q) >= 1"),
    ("run_census.py", "g=1 n=4: 96 chambers, 17 orbits"),
])
def test_script_prints_its_result(tmp_path, name, pinned):
    assert any(line.startswith(pinned)
               for line in run_script(name, tmp_path)), pinned


def test_genus_two_script(tmp_path):
    lines = run_script("run_genus_two.py", tmp_path)
    # The one boundary component is twice a 5-edge class, printed through
    # str() of the stored matrix entry.
    i = lines.index("boundary of H_1 - H_2 + H_3 - G_1 + G_2 - G_3: "
                    "1 nonzero component(s)")
    assert lines[i + 1].startswith("  2 * [")
    assert "dim E^3 at (p,q)=(3,-1): 0" in lines
    assert "lower bounds emitted: none" in lines


def test_census_points(tmp_path):
    lines = run_script("run_census.py", tmp_path, "--points", "--max-n", "4")
    header = next(k for k, line in enumerate(lines)
                  if line.startswith("g=1 n=4: 96 chambers, 17 orbits"))
    points = lines[header + 1:]
    assert len(points) == 17
    for line in points:
        match = re.fullmatch(r"  \(([-\d/,]+)\)  \[\d+ Plus walls, "
                             r"orbit size \d+\]", line)
        assert match, line
        entries = [Fraction(x) for x in match.group(1).split(",")]
        assert len(entries) == 4
        assert all(0 < x <= 1 for x in entries), line


@pytest.mark.parametrize("g,digest", [
    (0, "300decb470b541236b1e67d97273e4aaefa0cdfd8a1313ec7d97f507bd1f8f02"),
    (1, "010f0ec894db62e13a14c9e18ffa4a69ca3041572a6472515e9fb2865b54b3b2"),
])
def test_census_points_pinned(tmp_path, g, digest):
    # counts, orbit sizes and witness points up to n = 5, timings left out;
    # computed by this program before the simplex tableau was condensed
    lines = run_script("run_census.py", tmp_path, "--points", "--g", str(g),
                       "--max-n", "5")
    text = "".join(re.sub(r" in \d+\.\d\d s$", "", line) + "\n"
                   for line in lines)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("name,digest", [
    ("run_five_chamber.py",
     "41e6c47cf49208c23aefef9fadf3018bd49ff7fec07b1e6742023af3134adcac"),
    ("run_genus_two.py",
     "f6846ea0e143d6083f589f379f360387399203a93a850c2670d542fc986f6f78"),
])
def test_script_output_pinned(tmp_path, name, digest):
    # the whole stdout, every page, label and boundary line included
    text = "".join(line + "\n" for line in run_script(name, tmp_path))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def load_frontier():
    spec = importlib.util.spec_from_file_location(
        "run_frontier", ROOT / "scripts" / "run_frontier.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FRONTIER = load_frontier()


def case_id(case) -> str:
    return "g{}n{}h{}".format(*case[:3])


def missed_pins():
    """Each case with its class counts or Betti numbers missing one pin, as
    (case, counts, betti)."""
    for case in FRONTIER.CASES:
        counts, betti = case[3], case[4]
        yield pytest.param(case, counts[:-1] + [counts[-1] + 1], betti,
                           id=f"{case_id(case)}-class-count")
        if betti:
            k = max(betti)
            yield pytest.param(case, counts, {**betti, k: betti[k] + 1},
                               id=f"{case_id(case)}-betti-changed")
        if betti is not None:
            extra = {**betti, min(betti, default=0) - 1: 1}
            yield pytest.param(case, counts, extra,
                               id=f"{case_id(case)}-betti-extra")


@pytest.mark.parametrize("case", FRONTIER.CASES, ids=case_id)
def test_frontier_pins_pass(case):
    FRONTIER.check(case, "cold", case[3], case[4])


@pytest.mark.parametrize("case,counts,betti", missed_pins())
def test_frontier_missed_pin(case, counts, betti):
    with pytest.raises(SystemExit) as info:
        FRONTIER.check(case, "warm", counts, betti)
    g, n, heavy, pinned_counts, pinned_betti = case
    name = f"({g},{n})" if heavy == n else f"({g},{n}) heavy {heavy}"
    if counts != pinned_counts:
        what, expected, got = "pure classes", pinned_counts, counts
    else:
        what, expected, got = "Betti numbers", pinned_betti, betti
    assert str(info.value) == (f"{name} warm: expected {what} {expected}, "
                               f"got {got}")


def test_frontier_child_fails_on_recomputed_cache(tmp_path, monkeypatch):
    """A child whose run reads a damaged cache file fails after its run,
    naming the case, the state and the file."""
    monkeypatch.setenv("TROPGC_CACHE", str(tmp_path))
    monkeypatch.setattr(enumeration, "_decoded", {})
    a = WeightDatum(1, (Fraction(1),) * 3)
    enumerate_stable_graphs(1, a, 0)
    [path] = tmp_path.glob("*.txt")
    path.write_bytes(b"damaged\n")
    monkeypatch.setattr(FRONTIER, "run",
                        lambda case, state: enumerate_stable_graphs(1, a, 0))
    with pytest.raises(SystemExit) as info:
        FRONTIER.run_child(FRONTIER.CASES[1], "warm")
    assert str(info.value).startswith(
        f"(3,2) warm: recomputed 1 cache file(s), first: ignoring cache "
        f"file {path}: ")


def test_frontier_child_passes_other_warnings(monkeypatch, capsys):
    monkeypatch.setattr(FRONTIER, "run",
                        lambda case, state: warnings.warn("another warning"))
    FRONTIER.run_child(FRONTIER.CASES[1], "warm")
    assert capsys.readouterr().err == "warning: another warning\n"


def test_frontier_child_past_timeout_is_terminated():
    """A child still running at the timeout is terminated, and the run
    exits naming the case and the state."""
    child = multiprocessing.get_context("spawn").Process(target=time.sleep,
                                                         args=(60,))
    with pytest.raises(SystemExit) as info:
        FRONTIER.start_and_join(child, FRONTIER.CASES[1], "cold", timeout=0.5)
    assert str(info.value) == ("(3,2) cold: the child ran past 0.5 s and was "
                               "terminated")
    assert not child.is_alive() and child.exitcode != 0


def test_readme_quick_start(capsys):
    # the two code blocks of README's "Library quick start", run in order
    # in one namespace, as a reader would paste them
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    assert "assert report.ok" in blocks[1]
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out == "{-1: 0, 0: 0, 1: 1}\n"
    assert namespace["report"].ok
