"""Compare two sets of benchmark results, metric by metric, per workload.

Usage: python3 perfbench/compare.py BASE NEW

BASE and NEW are each a result file written by run.py, or a directory of
them; each file contributes its reported value of every metric, one sample
per run. For each workload row it prints each metric's median and quartiles
on both sides and the ratio NEW/BASE of the medians, and flags an end-to-end
metric whose median got worse by more than its bound in BENCHMARK.json.
Exits 1 if any metric is flagged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import load_benchmark, quartiles


def load_side(path: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> samples."""
    files = sorted(path.glob("result-*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"no result files in {path}")
    side: dict[str, dict[str, list[float]]] = {}
    for f in files:
        for row in json.loads(f.read_text())["rows"]:
            metrics = side.setdefault(row["workload"], {})
            for name, m in row["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return side


def worse_by(base: float, new: float, better: str) -> float:
    """Share of the base median by which NEW is worse (negative: better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = load_benchmark()
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, new = load_side(Path(argv[0])), load_side(Path(argv[1]))
    flagged = 0
    for workload in sorted(set(base) & set(new)):
        print(f"== {workload}")
        print(f"{'metric':40} {'base median [q1, q3]':>34} "
              f"{'new median [q1, q3]':>34} {'new/base':>9}")
        for name in sorted(set(base[workload]) & set(new[workload])):
            if name not in declared:
                continue
            b1, b, b3 = quartiles(base[workload][name])
            n1, n, n3 = quartiles(new[workload][name])
            ratio = f"{n / b:9.4f}" if b else f"{'-':>9}"
            line = (f"{name:40} {b:12.6g} [{b1:9.4g}, {b3:9.4g}] "
                    f"{n:12.6g} [{n1:9.4g}, {n3:9.4g}] {ratio}")
            spec = declared[name]
            if "bound" in spec and worse_by(b, n, spec["better"]) > spec["bound"]:
                line += f"  WORSE by more than {spec['bound']:.0%}"
                flagged += 1
            print(line)
    for workload in sorted(set(base) ^ set(new)):
        print(f"== {workload}: only on one side")
    return 1 if flagged else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
