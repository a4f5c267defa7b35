"""Record the seed-0 output references that checks.py compares against.

Usage: python3 perfbench/record_reference.py [WORKLOAD ...]

Runs one pass of each workload (default: all) at seed 0 with the program in
this checkout and writes ``perfbench/reference/<workload>.json.gz``. Record
from the commit the benchmark's baseline is measured on; outputs of circuits
that fail there are left out.
"""

import shutil
import sys

from checks import record_reference
from harness import load_cli, run_pass, write_configs
from run import OUT_DIR, git_commit
from workloads import WORKLOADS, make_inputs


def main(names: list[str]) -> int:
    cli = load_cli()
    for name in names or list(WORKLOADS):
        jobs = WORKLOADS[name](make_inputs(0))
        work = OUT_DIR / "reference-work"
        shutil.rmtree(work, ignore_errors=True)
        configs = write_configs(jobs, work / "config")
        results = run_pass(cli, jobs, configs, work / "pass")
        path = record_reference(name, work / "pass", results, git_commit())
        shutil.rmtree(work)
        print(f"{name}: {path.stat().st_size} bytes -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
