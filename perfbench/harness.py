"""Run a workload's CLI calls in process and account for each circuit.

A pass runs every job of a workload once, in order, through
``spinsim.cli.main(argv)``, each job writing into its own directory under the
pass directory. The caller times the pass; this module only runs it and
reads back which circuits failed.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import sys
from contextlib import redirect_stderr
from dataclasses import dataclass
from pathlib import Path

from workloads import Job

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# "thetaNNN: ..." per violation; a --circuit-in job tags its one circuit "input"
_VIOLATION = re.compile(r"^(?:theta(\d{3})|input): ")


class SetupError(RuntimeError):
    """The program under test cannot be found or loaded from the checkout."""


def load_cli():
    """Import ``spinsim.cli`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "spinsim" / "__init__.py").is_file():
        raise SetupError(f"no spinsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import spinsim.cli
    if not Path(spinsim.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"spinsim was imported from {spinsim.cli.__file__}, "
                         f"not from {SRC}")
    return spinsim.cli


def write_configs(jobs: list[Job], config_dir: Path) -> dict[str, Path]:
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for job in jobs:
        path = config_dir / f"{job.name}.json"
        path.write_text(json.dumps(job.config))
        paths[job.name] = path
    return paths


def job_argv(job: Job, config: Path, pass_dir: Path) -> list[str]:
    argv = [job.command, "--config", str(config), *job.flags,
            "--out", str(pass_dir / job.name)]
    if job.circuit_in is not None:
        argv += ["--circuit-in", str(source_circuit(job, pass_dir))]
    return argv


def source_circuit(job: Job, pass_dir: Path) -> Path:
    return pass_dir / job.circuit_in / f"{job.protocol}_theta000_circuit.txt"


@dataclass
class JobResult:
    job: Job
    exit_code: int
    stderr: str

    def failed_thetas(self) -> dict[int, str]:
        """Failed grid points of this job, by theta index, with the reason."""
        if self.exit_code == 0:
            return {}
        if self.exit_code == 4 and self.job.command == "schedule":
            counts: dict[int, int] = {}
            for line in self.stderr.splitlines():
                m = _VIOLATION.match(line)
                if m:
                    i = int(m.group(1) or 0)
                    counts[i] = counts.get(i, 0) + 1
            if counts:
                return {i: _plural(c, "violation") for i, c in counts.items()}
        reason = (self.stderr.strip().splitlines() or ["no message"])[-1]
        return dict.fromkeys(range(len(self.job.thetas)),
                             f"exit {self.exit_code}: {reason}")

    def failures(self) -> dict[str, str]:
        """Failed circuits of this job, by label, with the reason."""
        return {circuit_label(self.job, i, n): reason
                for i, reason in sorted(self.failed_thetas().items())
                for n in self.job.n_values}


def circuit_label(job: Job, theta_index: int, n: int) -> str:
    label = f"{job.command} {job.protocol} θ={job.thetas[theta_index]:.6g}"
    if job.protocol == "ising":
        label += f" n={n}"
    if job.circuit_in is not None:
        label += " (rescheduled)"
    return label


def _plural(count: int, noun: str) -> str:
    return f"{count} {noun}{'' if count == 1 else 's'}"


def run_pass(cli, jobs: list[Job], configs: dict[str, Path],
             pass_dir: Path) -> list[JobResult]:
    """Run every job once; nothing here is timed or checked."""
    results = []
    for job in jobs:
        err = io.StringIO()
        with redirect_stderr(err):
            try:
                code = cli.main(job_argv(job, configs[job.name], pass_dir))
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 2
        results.append(JobResult(job, code, err.getvalue()))
    return results


def output_digest(pass_dir: Path) -> tuple[dict[str, str], int, int]:
    """sha256 per output file (keyed job/file), total bytes and file count."""
    digests, size = {}, 0
    for path in sorted(pass_dir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            size += len(data)
            digests[path.relative_to(pass_dir).as_posix()] = \
                hashlib.sha256(data).hexdigest()
    return digests, size, len(digests)
