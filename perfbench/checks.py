"""Output checks for every pass, independent of the program under test.

Every seed:

* the exact-dynamics columns of ``simulate`` match ``scipy.linalg.expm`` of
  the model Hamiltonian, built here from the Pauli matrices;
* ``fid_vs_exact`` is 1 for xy and heisenberg, whose compilation is exact;
* every chi is Hermitian with unit trace and eigenvalues >= -1e-9;
* fidelities lie in [0, 1], negativities in [0, 0.5], and every number is
  finite;
* every timeline of a theta > 0 circuit has no validation violation and no
  two events overlapping on one channel;
* the ``--circuit-in`` reschedule reproduces its source timeline byte for
  byte.

Seed 0 also compares every number with the reference recorded from the
parent commit (``reference/<workload>.json.gz``) to within 1e-9 absolute,
with the labels and the row structure exact. Circuits that failed when the
reference was recorded have no reference entry and are not checked.

One output is one CSV row, one chi file, one circuit dump or one timeline.
"""

from __future__ import annotations

import gzip
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from harness import JobResult, circuit_label, source_circuit
from workloads import Inputs, Job

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
ABS_TOL = 1e-9
OVERLAP_TOL_NS = 1e-5  # timeline times are printed with 12 significant digits
F_P_XY_REFERENCE = 0.957

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
OBSERVABLES = {
    "sx1": np.kron(_X, _I), "sy1": np.kron(_Y, _I), "sz1": np.kron(_Z, _I),
    "sx2": np.kron(_I, _X), "sy2": np.kron(_I, _Y), "sz2": np.kron(_I, _Z),
    "xx_corr": np.kron(_X, _X),
}
CHI_LABELS = [a + b for a in "IXYZ" for b in "IXYZ"]
TIMELINE_HEADER = "channel,start_ns,duration_ns,label"

_DELIMITERS = re.compile(r'([\s,=:\[\]{}"]+)')
_NUMBER_SLOT = "§"


def tokenize(text: str) -> list[list]:
    """Per line: [skeleton with numbers replaced by a slot mark, numbers]."""
    lines = []
    for line in text.splitlines():
        parts = _DELIMITERS.split(line)
        values = []
        for i in range(0, len(parts), 2):
            try:
                values.append(float(parts[i]))
            except ValueError:
                continue
            parts[i] = _NUMBER_SLOT
        lines.append(["".join(parts), values])
    return lines


def model_hamiltonian(protocol: str, j_sign: int, b_over_j: float) -> np.ndarray:
    xx, yy, zz = np.kron(_X, _X), np.kron(_Y, _Y), np.kron(_Z, _Z)
    if protocol == "xy":
        return j_sign / 2.0 * (xx + yy)
    if protocol == "heisenberg":
        return j_sign * (xx + yy + zz)
    b = j_sign * b_over_j
    return j_sign * xx + b / 2.0 * (np.kron(_Z, _I) + np.kron(_I, _Z))


def negativity(rho: np.ndarray) -> float:
    partial_t = rho.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
    w = np.linalg.eigvalsh(partial_t)
    return float(-w[w < 0.0].sum())


def exact_columns(h: np.ndarray, psi0: np.ndarray, theta: float) -> dict[str, float]:
    psi = expm(-1j * h * theta / 2.0) @ psi0
    rho = np.outer(psi, psi.conj())
    cols = {k: float(np.trace(rho @ o).real) for k, o in OBSERVABLES.items()}
    cols["negativity"] = negativity(rho)
    return cols


def _in_range(name: str, value: float, lo: float, hi: float) -> list[str]:
    if lo - ABS_TOL <= value <= hi + ABS_TOL:
        return []
    return [f"{name} = {value!r} outside [{lo}, {hi}]"]


def _close(name: str, got: float, want: float) -> list[str]:
    if abs(got - want) <= ABS_TOL:
        return []
    return [f"{name} = {got!r}, expected {want!r}"]


@dataclass
class Report:
    checked: int = 0
    mismatches: list[str] = field(default_factory=list)
    nonfinite: set[str] = field(default_factory=set)

    def add(self, item: str, circuit: str, problems: list[str]) -> None:
        self.checked += 1
        if problems:
            self.mismatches.append(f"{item}: {'; '.join(problems[:3])}")
        if any(p.startswith("non-finite") for p in problems):
            self.nonfinite.add(circuit)


class Checker:
    def __init__(self, inputs: Inputs, reference: dict | None = None):
        self.inputs = inputs
        self.reference = reference

    def check(self, pass_dir: Path, results: list[JobResult]) -> Report:
        report = Report()
        for result in results:
            handler = {"simulate": self._simulate, "trotter-scan": self._scan,
                       "tomography": self._tomography,
                       "schedule": self._schedule}[result.job.command]
            handler(pass_dir, result, report)
        return report

    # -- helpers ----------------------------------------------------------

    def _lines(self, path: Path) -> list[list] | None:
        try:
            return tokenize(path.read_text())
        except OSError:
            return None

    def _reference(self, key: str, lines: list[list],
                   rows: list[int] | None) -> list[str]:
        """Compare lines (all, or header plus ``rows``) with the reference."""
        if self.reference is None:
            return []
        ref = self.reference["files"].get(key)
        if ref is None:
            return [f"no reference for {key}"]
        if len(ref) != len(lines):
            return [f"{len(lines)} lines, reference has {len(ref)}"]
        problems = []
        for i in ([0] + rows if rows is not None else range(len(lines))):
            (skel, vals), (ref_skel, ref_vals) = lines[i], ref[i]
            if skel != ref_skel or len(vals) != len(ref_vals):
                problems.append(f"line {i + 1} differs in structure")
            elif any(not abs(v - r) <= ABS_TOL for v, r in zip(vals, ref_vals)):
                problems.append(f"line {i + 1} differs from reference by > {ABS_TOL}")
        return problems

    def _csv_rows(self, pass_dir: Path, job: Job, name: str,
                  expected_rows: int, report: Report, check_row) -> None:
        """One output per expected row; ``check_row(i, row)`` gives problems."""
        key = f"{job.name}/{name}"
        lines = self._lines(pass_dir / key)
        header = None
        if lines is not None and len(lines) == expected_rows + 1:
            header = lines[0][0].split(",")
        for i in range(expected_rows):
            theta_i, n_i = divmod(i, len(job.n_values))
            circuit = circuit_label(job, theta_i, job.n_values[n_i])
            if header is None:
                report.add(f"{key} row {i + 1}", circuit,
                           [f"missing, or not {expected_rows} rows"])
                continue
            skel, values = lines[i + 1]
            cells = skel.split(",")
            problems = []
            if len(cells) != len(header) or len(values) != len(header):
                problems.append("row is not all numbers or has the wrong width")
            elif not all(math.isfinite(v) for v in values):
                problems.append("non-finite number")
            else:
                try:
                    problems += check_row(i, dict(zip(header, values)))
                except KeyError as exc:
                    problems.append(f"missing column {exc}")
            problems += self._reference(key, lines, [i + 1])
            report.add(f"{key} row {i + 1}", circuit, problems)

    # -- per command ------------------------------------------------------

    def _simulate(self, pass_dir: Path, result: JobResult, report: Report) -> None:
        job = result.job
        h = model_hamiltonian(job.protocol, self.inputs.j_sign,
                              self.inputs.b_over_j)
        psi0 = np.array(self.inputs.state(job.protocol), dtype=complex)
        exact_compilation = job.protocol in ("xy", "heisenberg")

        def check_row(i: int, row: dict) -> list[str]:
            theta = job.thetas[i]
            problems = _close("theta", row["theta"], theta)
            for k, want in exact_columns(h, psi0, theta).items():
                problems += _close(k, row[k], want)
            if exact_compilation:
                problems += _close("fid_vs_exact", row["fid_vs_exact"], 1.0)
            for k in ("fid_vs_exact", "noisy_fid_vs_exact"):
                problems += _in_range(k, row[k], 0.0, 1.0)
            for k in ("negativity", "noisy_negativity"):
                problems += _in_range(k, row[k], 0.0, 0.5)
            for k in OBSERVABLES:
                problems += _in_range(f"noisy_{k}", row[f"noisy_{k}"], -1.0, 1.0)
            return problems

        self._csv_rows(pass_dir, job, f"{job.protocol}_dynamics.csv",
                       len(job.thetas), report, check_row)

    def _scan(self, pass_dir: Path, result: JobResult, report: Report) -> None:
        job = result.job

        def check_row(i: int, row: dict) -> list[str]:
            theta_i, n_i = divmod(i, len(job.n_values))
            n = job.n_values[n_i]
            f_p = min(max(1.0 - 2.0 * n * (1.0 - F_P_XY_REFERENCE), 0.0), 1.0)
            problems = _close("theta", row["theta"], job.thetas[theta_i])
            problems += _close("n", row["n"], n)
            problems += _close("f_s_predicted", row["f_s_predicted"],
                               (4.0 * f_p + 1.0) / 5.0)
            for k in ("fid_ideal_trotter", "fid_noisy"):
                problems += _in_range(k, row[k], 0.0, 1.0)
            return problems

        self._csv_rows(pass_dir, job, "trotter_scan.csv", job.circuits,
                       report, check_row)

    def _tomography(self, pass_dir: Path, result: JobResult,
                    report: Report) -> None:
        job = result.job
        for i in range(len(job.thetas)):
            key = f"{job.name}/chi_{job.protocol}_theta{i:03d}.json"
            report.add(key, circuit_label(job, i, job.n_values[0]),
                       self._chi_problems(pass_dir / key, key))

        def check_row(i: int, row: dict) -> list[str]:
            problems = _close("theta", row["theta"], job.thetas[i])
            for k in ("f_process", "f_state"):
                problems += _in_range(k, row[k], 0.0, 1.0)
            return problems + _in_range("negativity", row["negativity"], 0.0, 0.5)

        self._csv_rows(pass_dir, job, "tomography_report.csv", len(job.thetas),
                       report, check_row)

    def _chi_problems(self, path: Path, key: str) -> list[str]:
        try:
            text = path.read_text()
            doc = json.loads(text)
            chi = np.array(doc["re"], dtype=float) + 1j * np.array(doc["im"], dtype=float)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable chi: {exc}"]
        if doc.get("basis") != CHI_LABELS or chi.shape != (16, 16):
            return ["unexpected chi basis or shape"]
        if not np.all(np.isfinite(chi)):
            return ["non-finite number"]
        problems = []
        asym = float(np.max(np.abs(chi - chi.conj().T)))
        if asym > ABS_TOL:
            problems.append(f"chi not Hermitian (max asymmetry {asym:.3g})")
        trace = complex(np.trace(chi))
        if abs(trace - 1.0) > ABS_TOL:
            problems.append(f"chi trace {trace:.12g}")
        low = float(np.linalg.eigvalsh((chi + chi.conj().T) / 2.0).min())
        if low < -ABS_TOL:
            problems.append(f"chi eigenvalue {low:.3g}")
        return problems + self._reference(key, tokenize(text), None)

    def _schedule(self, pass_dir: Path, result: JobResult, report: Report) -> None:
        job = result.job
        failed = result.failed_thetas()
        for i, theta in enumerate(job.thetas):
            if theta == 0.0:
                continue  # known to fail validation; counted in fail_frac only
            tag = "input" if job.circuit_in is not None else f"theta{i:03d}"
            stem = f"{job.name}/{job.protocol}_{tag}"
            circuit = circuit_label(job, i, job.n_values[0])
            lines = self._lines(pass_dir / f"{stem}_circuit.txt")
            problems = (["missing"] if lines is None else
                        self._finite(lines) + self._reference(
                            f"{stem}_circuit.txt", lines, None))
            report.add(f"{stem}_circuit.txt", circuit, problems)

            problems = self._timeline_problems(pass_dir / f"{stem}_timeline.csv")
            if i in failed:
                problems.append(f"validation: {failed[i]}")
            if job.circuit_in is not None:
                source = source_circuit(job, pass_dir).with_name(
                    f"{job.protocol}_theta000_timeline.csv")
                if not _same_bytes(source, pass_dir / f"{stem}_timeline.csv"):
                    problems.append("reschedule differs from its source timeline")
            lines = self._lines(pass_dir / f"{stem}_timeline.csv")
            if lines is not None:
                problems += self._reference(f"{stem}_timeline.csv", lines, None)
            report.add(f"{stem}_timeline.csv", circuit, problems)

    @staticmethod
    def _finite(lines: list[list]) -> list[str]:
        if all(math.isfinite(v) for _, values in lines for v in values):
            return []
        return ["non-finite number"]

    @staticmethod
    def _timeline_problems(path: Path) -> list[str]:
        """Finite, non-negative events that never overlap on one channel."""
        try:
            rows = path.read_text().splitlines()
        except OSError:
            return ["missing"]
        if not rows or rows[0] != TIMELINE_HEADER:
            return ["unexpected timeline header"]
        by_channel: dict[str, list[tuple[float, float]]] = {}
        for row in rows[1:]:
            channel, start, duration, _label = row.split(",")
            start, duration = float(start), float(duration)
            if not (math.isfinite(start) and math.isfinite(duration)):
                return ["non-finite number"]
            if duration < 0.0:
                return [f"negative duration on {channel}"]
            by_channel.setdefault(channel, []).append((start, start + duration))
        for channel, spans in by_channel.items():
            spans.sort()
            for (_, end), (start, _) in zip(spans, spans[1:]):
                if start < end - OVERLAP_TOL_NS:
                    return [f"overlap on {channel} at {start:g} ns"]
        return []


def _same_bytes(a: Path, b: Path) -> bool:
    try:
        return a.read_bytes() == b.read_bytes()
    except OSError:
        return False


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict:
    with gzip.open(reference_path(workload), "rt") as f:
        return json.load(f)


def record_reference(workload: str, pass_dir: Path, results: list[JobResult],
                     commit: str | None) -> Path:
    """Store every output of the pass except those of failed circuits."""
    files = {}
    for result in results:
        job, failed = result.job, result.failed_thetas()
        if failed and job.command != "schedule":
            continue
        skip = {"_input_" if job.circuit_in is not None else f"_theta{i:03d}_"
                for i in failed}
        for path in sorted((pass_dir / job.name).iterdir()):
            if any(s in path.name for s in skip):
                continue
            lines = tokenize(path.read_text())
            files[f"{job.name}/{path.name}"] = [
                [skel, [round(v, 12) for v in values]] for skel, values in lines]
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"workload": workload, "seed": 0, "commit": commit, "files": files}
    # mtime=0 keeps the file byte-stable when nothing changed
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb",
                                                 mtime=0) as f:
        f.write(json.dumps(doc, separators=(",", ":")).encode())
    return path
