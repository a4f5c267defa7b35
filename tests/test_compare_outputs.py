import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_outputs",
                                               ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def write_tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_diff_dirs_finds_the_one_moved_number(tmp_path):
    same = {"chi/chi_xy_theta000.json": '{\n "re": [\n  1e-18,\n  0.25\n ]\n}\n'}
    write_tree(tmp_path / "old", {**same, "dyn.csv": "theta,f\n0,1\n0.5,0.9791442380\n"})
    write_tree(tmp_path / "new", {**same, "dyn.csv": "theta,f\n0,1\n0.5,0.9791442381\n"})
    diffs = compare_outputs.diff_dirs(tmp_path / "old", tmp_path / "new")
    assert diffs["chi/chi_xy_theta000.json"] == (0, 0.0)
    lines, worst = diffs["dyn.csv"]
    assert lines == 1 and worst == pytest.approx(1e-10, rel=1e-3)


@pytest.mark.parametrize("old, new", [("theta000,1", "theta001,1"), ("1,2", "1,2,3"),
                                      ("x=1.5", "x=nan"), ("error: a", "error: b")])
def test_text_changes_are_infinite(old, new):
    assert compare_outputs.line_difference(old, new) == math.inf


def test_file_on_one_side_is_infinite(tmp_path):
    write_tree(tmp_path / "old", {"a.csv": "1\n"})
    (tmp_path / "new").mkdir()
    assert compare_outputs.diff_dirs(tmp_path / "old", tmp_path / "new") == {
        "a.csv": (1, math.inf)}


def test_tree_agrees_with_itself():
    log = []
    args = ("simulate", "--protocol", "xy", "--thetas", "0.5", "--no-noise")
    assert compare_outputs.compare(ROOT, ROOT, [args], log=log.append)
    assert log == [" ".join(args)
                   + ": exit 0 -> 0, stderr equal, 1 identical and 0 changed files"]


def test_chain_reschedules_the_long_dump():
    # the long schedule writes its circuit and timeline, and the reschedule of
    # that circuit writes the same pair under the "input" tag
    log = []
    assert compare_outputs.compare(ROOT, ROOT, [compare_outputs.RESCHEDULE],
                                   log=log.append)
    assert log == [" && ".join(" ".join(cmd) for cmd in compare_outputs.RESCHEDULE)
                   + ": exit 0 -> 0, stderr equal, 4 identical and 0 changed files"]


@pytest.mark.parametrize("chain", compare_outputs.HEADERS, ids=lambda c: " ".join(c[0][2:]))
def test_every_header_chain_reschedules_its_dump(chain):
    log = []
    assert compare_outputs.compare(ROOT, ROOT, [chain], log=log.append)
    assert log == [" && ".join(" ".join(cmd) for cmd in chain)
                   + ": exit 0 -> 0, stderr equal, 4 identical and 0 changed files"]
