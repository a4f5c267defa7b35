"""Run the same CLI invocations in two source trees and compare their outputs.

Usage: python3 tools/compare_outputs.py OLD_TREE NEW_TREE

Each invocation runs in each tree through this interpreter with
``PYTHONPATH=<tree>/src``, from its own temporary directory and with
``--out out``, so file names and messages that name the output directory
agree.  An invocation can also be a chain of commands run in turn in one
directory, such as a long schedule and the reschedule of its circuit dump.
For every invocation the script prints both exit codes, whether stderr is
equal, and each output file as identical or changed; a changed file shows
its count of changed lines and the largest absolute difference between the
numbers on them.  A line whose text differs outside its numbers, or a
file that only one tree wrote, counts as an infinite difference.

Exit status: 1 if an exit code or stderr differs, or if any number moves by
more than 1e-12; 0 otherwise.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

TOL = 1e-12
COMMANDS = ("simulate", "trotter-scan", "tomography", "schedule")
PROTOCOLS = ("xy", "heisenberg", "ising")
VARIANTS = ((), ("--no-noise",), ("--n-steps", "5", "--j-sign", "1", "--b-over-j", "-2.5"),
            ("--thetas", "0"), ("--thetas", "5e-324"))
# the pulse benchmark's long circuit, and its dump parsed back and rescheduled
LONG_ISING = ("schedule", "--protocol", "ising", "--n-steps", "200",
              "--thetas", "1.5707963267948966")
RESCHEDULE = (LONG_ISING, ("schedule", "--protocol", "ising",
                           "--circuit-in", "out/ising_theta000_circuit.txt"))
INVOCATIONS = tuple((cmd, "--protocol", p) + v
                    for v in VARIANTS for cmd in COMMANDS for p in PROTOCOLS
                    ) + (LONG_ISING, RESCHEDULE)

# a number not glued to a preceding word, so "theta000" stays text
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|(?i:inf(?:inity)?|nan))")


def line_difference(old: str, new: str) -> float:
    """Largest absolute difference between the numbers of two lines.

    0 for equal lines; infinite when the text around the numbers differs
    (which includes a different count of numbers) or a changed number is not
    finite.
    """
    if old == new:
        return 0.0
    if _NUMBER.split(old) != _NUMBER.split(new):
        return math.inf
    worst = 0.0
    for x, y in zip(_NUMBER.findall(old), _NUMBER.findall(new)):
        if x != y:
            d = abs(float(x) - float(y))
            worst = max(worst, d if math.isfinite(d) else math.inf)
    return worst


def diff_dirs(old: Path, new: Path) -> dict[str, tuple[int, float]]:
    """{relative path: (changed lines, largest difference)} over both trees' files.

    An identical file maps to (0, 0.0); a file that only one side has, or
    whose line count changed, maps to (its larger line count, at least 1, inf).
    """
    files = {p.relative_to(root).as_posix()
             for root in (old, new) for p in root.rglob("*") if p.is_file()}
    out = {}
    for name in sorted(files):
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            text = (a if a.is_file() else b).read_text()
            out[name] = (max(len(text.splitlines()), 1), math.inf)
            continue
        la, lb = a.read_text().splitlines(), b.read_text().splitlines()
        if len(la) != len(lb):
            out[name] = (max(len(la), len(lb), 1), math.inf)
            continue
        diffs = [line_difference(x, y) for x, y in zip(la, lb) if x != y]
        out[name] = (len(diffs), max(diffs, default=0.0))
    return out


def commands(args: tuple) -> tuple[tuple[str, ...], ...]:
    """The commands of an invocation: one argument tuple, or a chain of them."""
    return args if isinstance(args[0], tuple) else (args,)


def run(tree: Path, args: tuple, workdir: Path) -> tuple[int, str]:
    """Run ``spinsim args --out out`` from ``tree``'s source in ``workdir``.

    A chain runs its commands in turn until one exits nonzero; the result is
    the last exit code and the stderr of every command run.
    """
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    code, err = 0, ""
    for cmd in commands(args):
        proc = subprocess.run([sys.executable, "-m", "spinsim", *cmd, "--out", "out"],
                              cwd=workdir, env=env, capture_output=True, text=True)
        code, err = proc.returncode, err + proc.stderr
        if code:
            break
    return code, err


def compare(old_tree: Path, new_tree: Path, invocations=INVOCATIONS, log=print) -> bool:
    """Run every invocation in both trees and print the comparison; True if they agree."""
    ok = True
    for args in invocations:
        with tempfile.TemporaryDirectory() as tmp:
            dirs = Path(tmp, "old"), Path(tmp, "new")
            codes, errs = [], []
            for tree, d in zip((old_tree, new_tree), dirs):
                d.mkdir()
                code, err = run(tree, args, d)
                codes.append(code)
                errs.append(err)
            files = diff_dirs(dirs[0] / "out", dirs[1] / "out")
        same = codes[0] == codes[1] and errs[0] == errs[1]
        worst = max((d for _, d in files.values()), default=0.0)
        ok = ok and same and worst <= TOL
        changed = sum(n > 0 for n, _ in files.values())
        label = " && ".join(" ".join(cmd) for cmd in commands(args))
        log(f"{label}: exit {codes[0]} -> {codes[1]}, stderr "
            f"{'equal' if errs[0] == errs[1] else 'DIFFERS'}, "
            f"{len(files) - changed} identical and {changed} changed files")
        for name, (n, d) in files.items():
            if n:
                log(f"  changed {name}: {n} lines, max |diff| {d:.1e}")
    return ok


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    ok = compare(Path(argv[0]), Path(argv[1]))
    print("outputs agree" if ok else f"outputs differ (exit code, stderr or > {TOL:g})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
