"""spinsim benchmark: end-to-end throughput per workload, or per-layer spans.

Usage:
    python3 perfbench/run.py --workload {sweep,tomo,pulse,all} --seed N
                             --seconds S --trace {0,1}

One process, one caller, closed loop: each workload's CLI calls run in
process through ``spinsim.cli.main(argv)``, one after another, after one
untimed warm-up pass, until ``--seconds`` of timed passes have run. With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead. End-to-end times are scaled to
a reference host speed, timed by calibrate.py's fixed kernel before every
pass. Outputs of every pass are checked (see checks.py). The last line of
standard output is one JSON object; a result file with every sample and the
run info goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from calibrate import REFERENCE_S, calibrate
from harness import ROOT, SRC, SetupError, load_cli, job_argv, output_digest, \
    run_pass, write_configs
from workloads import WORKLOADS, make_inputs, probe_calls

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 120
MIN_TRACED_PASSES = 2
# counts that must repeat exactly between traced passes
REPEATING_COUNTS = ("noise.gates_propagated", "tomography.channel_evals",
                    "scheduler.events", "scheduler.violations", "cli.bytes_written")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric(values: list[float], unit: str) -> dict:
    """Samples with their quartiles; the reported value is their median."""
    q1, median, q3 = quartiles(values)
    return {"value": median, "unit": unit, "q1": q1, "q3": q3, "samples": values}


# -- run info ---------------------------------------------------------------

def blas_info() -> dict:
    import numpy as np
    info = {}
    try:
        dep = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info = {"name": dep.get("name"), "version": dep.get("version")}
    except (AttributeError, KeyError):
        pass
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_info(seed: int) -> dict:
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "commit": git_commit(),
        "seed": seed,
    }


# -- measurement ------------------------------------------------------------

class SetupProbe:
    """Set-up time in fresh interpreters, one probe between timed passes.

    Spreading the probes over the run keeps them from all landing in one
    slow or fast stretch of a shared host. Each probe is stored with the
    calibration time taken next to it, to scale it to the reference speed.
    """

    def __init__(self, workload: str, seed: int, work: Path):
        self.jobs = probe_calls(workload, make_inputs(seed))
        self.configs = write_configs(self.jobs, work / "config")
        self.work = work
        self.samples: list[float] = []
        self.calibrations: list[float] = []
        self.problems: list[str] = []

    def run_one(self, calibration: float) -> None:
        k = len(self.samples) + len(self.problems)
        calls = [job_argv(job, self.configs[job.name], self.work / f"run{k}")
                 for job in self.jobs]
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
             json.dumps(calls)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        try:
            out = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            self.problems.append(f"set-up probe exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-300:]}")
            return
        if any(out["exit_codes"]):
            self.problems.append(f"set-up probe calls exited {out['exit_codes']}")
        self.samples.append(out["setup_s"])
        self.calibrations.append(calibration)


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool,
                 work: Path, layer_units: dict[str, str]) -> dict:
    inputs = make_inputs(seed)
    jobs = WORKLOADS[name](inputs)
    circuits = sum(job.circuits for job in jobs)
    configs = write_configs(jobs, work / "config")
    row: dict = {"workload": name, "seed": seed, "trace": int(trace),
                 "circuits_per_pass": circuits, "problems": []}

    probe = None if trace else SetupProbe(name, seed, work / "probe")
    warm_dir = work / "warmup"
    warm_results = run_pass(cli, jobs, configs, warm_dir)
    warm_digest, _, _ = output_digest(warm_dir)
    calibrate()  # untimed, like the warm-up pass

    tracer = None
    if trace:
        from tracing import Tracer
        import spinsim.hamiltonians
        import spinsim.noise
        tracer = Tracer({"cli": cli, "hamiltonians": spinsim.hamiltonians,
                         "noise": spinsim.noise})
    passes: list[dict] = []
    deviating: dict[int, tuple[Path, list]] = {}
    started = time.perf_counter()
    while True:
        traced = [p for p in passes if p["traced"]]
        elapsed = time.perf_counter() - started
        # stop before a pass that would likely end past the deadline
        expected_end = elapsed + (statistics.median(p["wall_s"] for p in passes)
                                  if passes else 0.0)
        if passes and expected_end > seconds and (
                not trace or (len(traced) >= MIN_TRACED_PASSES
                              and len(passes) > len(traced))):
            break
        k = len(passes)
        calibration = calibrate()
        if probe is not None and k < SETUP_REPEATS:
            probe.run_one(calibration)
        is_traced = trace and k % 2 == 1
        pass_dir = work / f"pass{k}"
        with (tracer.traced_pass() if is_traced else nullcontext()) as pass_id:
            cpu0, wall0 = time.process_time(), time.perf_counter()
            results = run_pass(cli, jobs, configs, pass_dir)
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
        digest, nbytes, nfiles = output_digest(pass_dir)
        record = {"wall_s": wall, "cpu_s": cpu, "calibration_s": calibration,
                  "traced": is_traced,
                  "bytes_written": nbytes, "files_written": nfiles,
                  "failures": {label: reason for r in results
                               for label, reason in r.failures().items()}}
        if is_traced:
            record["layers"] = tracer.pass_layers(pass_id, wall)
        passes.append(record)
        if digest == warm_digest:
            shutil.rmtree(pass_dir)
        else:
            deviating[k] = (pass_dir, results)
    while probe is not None and len(probe.samples) + len(probe.problems) < SETUP_REPEATS:
        probe.run_one(calibrate())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks  # after the timed passes, so scipy stays out of peak RSS
    reference = checks.load_reference(name) if seed == 0 else None
    checker = checks.Checker(inputs, reference)
    warm_report = checker.check(warm_dir, warm_results)
    checked = mismatched = failed = 0
    mismatches: list[str] = []
    for k, record in enumerate(passes):
        report = (checker.check(*deviating[k]) if k in deviating else warm_report)
        for label in report.nonfinite:
            record["failures"].setdefault(label, "non-finite output")
        checked += report.checked
        mismatched += len(report.mismatches)
        mismatches += [m for m in report.mismatches if m not in mismatches]
        failed += len(record["failures"])
    attempted = circuits * len(passes)

    row.update({
        "passes": len(passes), "deviating_passes": sorted(deviating),
        "attempted": attempted, "failed": failed,
        "outputs_checked": checked, "outputs_mismatched": mismatched,
        "mismatches": mismatches[:50],
        "failing_circuits": _failing_circuits(name, passes),
        "pass_samples": passes, "peak_rss_mb": peak_rss_mb,
    })
    # Each pass's times are scaled by REFERENCE_S / the calibration time taken
    # just before it, which cancels the host's drift (see calibrate.py); the
    # median over passes then drops the odd pass or calibration caught in a stall.
    timed = [p for p in passes if not p["traced"]]
    scale = [REFERENCE_S / p["calibration_s"] for p in timed]
    rate = [circuits / p["wall_s"] for p in timed]
    cpu_ms = [1e3 * p["cpu_s"] / circuits for p in timed]
    row["metrics"] = {
        "circuits_per_s": metric([r / f for r, f in zip(rate, scale)], "circuits/s"),
        "cpu_ms_per_circuit": metric([c * f for c, f in zip(cpu_ms, scale)], "ms"),
        "peak_rss_mb": metric([peak_rss_mb], "MB"),
        "ok_frac": metric([1.0 - failed / attempted], "ratio"),
        "match_frac": metric([1.0 - mismatched / max(checked, 1)], "ratio"),
        "fail_frac": metric([failed / attempted], "ratio"),
        "mismatch_frac": metric([mismatched / max(checked, 1)], "ratio"),
        "calibration_s": metric([p["calibration_s"] for p in timed], "s"),
        "unscaled_circuits_per_s": metric(rate, "circuits/s"),
        "unscaled_cpu_ms_per_circuit": metric(cpu_ms, "ms"),
    }
    if probe is not None:
        row["problems"] += probe.problems
        if probe.samples:
            row["metrics"]["setup_s"] = metric(
                [t * REFERENCE_S / c for t, c in zip(probe.samples, probe.calibrations)],
                "s")
            row["metrics"]["unscaled_setup_s"] = metric(probe.samples, "s")
    if trace:
        row["metrics"].update(_layer_metrics(passes, row, layer_units))
        tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
    shutil.rmtree(warm_dir)
    for pass_dir, _ in deviating.values():
        shutil.rmtree(pass_dir)
    return row


def _failing_circuits(workload: str, passes: list[dict]) -> list[str]:
    seen: dict[str, str] = {}
    for p in passes:
        for label, reason in p["failures"].items():
            seen.setdefault(label, reason)
    return [f"{workload}: {label}, {reason}" for label, reason in seen.items()]


def _layer_metrics(passes: list[dict], row: dict, units: dict[str, str]) -> dict:
    """Median over traced passes of each layer value; counts must repeat.

    A layer the workload never enters has no spans; its calls, counts and
    self times are reported as 0.
    """
    traced = [p for p in passes if p["traced"]]
    per_pass = []
    for p in traced:
        layers = dict(p["layers"])
        layers["cli.bytes_written"] = p["bytes_written"]
        layers["cli.files_written"] = p["files_written"]
        layers["tomography.channel_evals"] = layers.get("tomography.channel.calls", 0)
        gates = layers.get("noise.gates_propagated", 0)
        inclusive = (layers.get("noise.simulate_noisy.self_s", 0.0)
                     + layers.get("linalg.check_density_matrix.self_s", 0.0))
        layers["noise.us_per_gate"] = 1e6 * inclusive / gates if gates else 0.0
        per_pass.append(layers)
    out = {}
    for name, unit in units.items():
        values = [layers.get(name, 0) for layers in per_pass]
        out[name] = metric(values, unit)
    for name in REPEATING_COUNTS:
        values = {layers.get(name, 0) for layers in per_pass}
        if len(values) > 1:
            row["problems"].append(f"{name} differs between traced passes: "
                                   f"{sorted(values)}")
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    overhead = (statistics.median(p["wall_s"] for p in traced)
                - statistics.median(untraced))
    out["trace.overhead_s"] = metric([overhead], units["trace.overhead_s"])
    return out


# -- output -----------------------------------------------------------------

def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def headline(row: dict, declared: list[dict]) -> dict:
    """The declared metrics of one row, as the last output line reports them."""
    missing = [m["name"] for m in declared if m["name"] not in row["metrics"]]
    if missing:
        raise SystemExit(f"{row['workload']}: no value for {missing}: "
                         f"{row['problems']}")
    return {m["name"]: {"value": row["metrics"][m["name"]]["value"],
                        "unit": m["unit"]} for m in declared}


def print_row(row: dict, declared: list[dict]) -> None:
    name = row["workload"]
    print(f"[{name}] seed {row['seed']}, {row['passes']} passes of "
          f"{row['circuits_per_pass']} circuits, trace {row['trace']}")
    shown = [m["name"] for m in declared]
    shown += [k for k in ("fail_frac", "mismatch_frac", "calibration_s",
                          "unscaled_circuits_per_s", "unscaled_cpu_ms_per_circuit",
                          "unscaled_setup_s")
              if k in row["metrics"] and k not in shown]
    for key in shown:
        m = row["metrics"][key]
        n = len(m["samples"])
        spread = (f" ({n} samples; q1 {m['q1']:.6g}, q3 {m['q3']:.6g})"
                  if n > 1 else "")
        print(f"[{name}] {key} = {m['value']:.6g} {m['unit']}{spread}")
    for line in row["failing_circuits"]:
        print(f"[{name}] failing circuit: {line}")
    for line in row["mismatches"][:10]:
        print(f"[{name}] mismatch: {line}")
    for line in row["problems"]:
        print(f"[{name}] problem: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bench = load_benchmark()
        cli = load_cli()
    except (OSError, ValueError, ImportError, SetupError) as exc:
        print(f"benchmark cannot start: {exc}", file=sys.stderr)
        return 2
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    work = OUT_DIR / f"work-{os.getpid()}"
    rows = []
    try:
        for name in names:
            rows.append(run_workload(
                cli, name, args.seed, args.seconds, bool(args.trace), work / name,
                {m["name"]: m["unit"] for m in bench["per_layer"]}))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = run_info(args.seed)
    result_path = OUT_DIR / (f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps({"run_info": info, "rows": rows}, indent=1))

    print(f"run info: {json.dumps(info)}")
    for row in rows:
        print_row(row, declared)
    print(f"result file: {result_path.relative_to(ROOT)}")

    correct = all(not row["mismatches"] and not row["problems"] for row in rows)
    summary = {"correct": correct,
               "attempted": sum(row["attempted"] for row in rows),
               "failed": sum(row["failed"] for row in rows)}
    if len(rows) == 1:
        summary["metrics"] = headline(rows[0], declared)
    else:
        summary["workloads"] = {row["workload"]: headline(row, declared)
                                for row in rows}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
