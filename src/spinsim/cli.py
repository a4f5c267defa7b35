"""Command-line front end: dynamics, Trotter scans, tomography and schedules.

Outputs are plain CSV/JSON files with pinned formatting (12 significant
digits, '.' decimal, ',' separator, Unix newlines) so runs are byte-stable
for a fixed configuration.

In dynamics CSVs the observable columns (sx1..sz2, xx_corr, negativity)
trace the exactly solved model, ``fid_vs_exact`` is the overlap of the
compiled protocol's output with that exact state, and the ``noisy_*``
columns repeat the observables for the noise-model simulation of the
protocol.

Exit codes: 0 success, 2 configuration error, 3 numerical error, 4 timeline
validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .circuits import (Circuit, EvolutionParams, circuit_to_text,
                       circuit_from_text, circuit_unitary, compile_heisenberg,
                       compile_ising, compile_xy)
from .hamiltonians import exact_evolve, oracle_hamiltonian
from .noise import (F_P_XY_REFERENCE, NoiseParams, TimingParams, predicted_fidelity,
                    simulate_noisy)
from .scheduler import schedule, timeline_to_csv, validate
from .tomography import (PAULI_LABELS_2Q, PAULI_MATRICES_2Q, FidelityReport,
                         chi_of_unitary, chi_to_json, negativity,
                         process_fidelity, process_tomography, state_fidelity)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_TIMELINE = 4

_FMT = "{:.12g}".format

_SQ2 = 1.0 / math.sqrt(2.0)
PRESETS = {
    "fig2": (_SQ2, _SQ2, 0.0, 0.0),
    "fig3": (_SQ2, -1j * _SQ2, 0.0, 0.0),
    "up-up": (1.0, 0.0, 0.0, 0.0),
    "bell": (_SQ2, 0.0, 0.0, _SQ2),
}

PROTOCOLS = ("xy", "heisenberg", "ising")
_DEFAULT_GRID = tuple(k * math.pi / 16.0 for k in range(33))

_OBS_COLS = ("sx1", "sy1", "sz1", "sx2", "sy2", "sz2", "xx_corr", "negativity")
# Pauli observable of each column before negativity; qubit 1 is written first
_OBS = tuple(PAULI_MATRICES_2Q[PAULI_LABELS_2Q.index(label)]
             for label in ("XI", "YI", "ZI", "IX", "IY", "IZ", "XX"))


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    protocol: str = "xy"
    theta_grid: tuple[float, ...] = _DEFAULT_GRID
    n_steps: int = 1
    n_list: tuple[int, ...] = (1, 2, 3, 4, 5)
    b_over_j: float = 3.0
    initial_state: object = None  # preset name, amplitudes, or None for default
    noise: NoiseParams | None = NoiseParams()
    j_sign: int = -1

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if not self.theta_grid:
            raise ConfigError("theta_grid must not be empty")
        if any(b <= a for a, b in zip(self.theta_grid, self.theta_grid[1:])):
            raise ConfigError("theta_grid must be strictly ascending")
        if not all(math.isfinite(t) for t in self.theta_grid):
            raise ConfigError("theta values must be finite")
        if any(t < 0 for t in self.theta_grid):
            raise ConfigError("theta values must be non-negative")
        if self.n_steps < 1:
            raise ConfigError("n_steps must be >= 1")
        if not self.n_list:
            raise ConfigError("n_list must not be empty")
        if any(n < 1 for n in self.n_list):
            raise ConfigError("n_list entries must be >= 1")
        if self.j_sign not in (-1, 1):
            raise ConfigError("j_sign must be +1 or -1")
        self.psi0()  # validate the initial state eagerly

    def psi0(self) -> np.ndarray:
        spec = self.initial_state
        if spec is None:
            spec = "fig3" if self.protocol == "ising" else "fig2"
        if isinstance(spec, str):
            if spec not in PRESETS:
                raise ConfigError(
                    f"unknown initial-state preset {spec!r}; "
                    f"choose from {sorted(PRESETS)} or give 4 amplitudes")
            return np.array(PRESETS[spec], dtype=complex)
        try:
            vec = [_amplitude(a) for a in spec]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad initial_state: {exc}") from exc
        if len(vec) != 4:
            raise ConfigError("initial_state needs exactly 4 amplitudes")
        psi = np.array(vec, dtype=complex)
        norm = np.linalg.norm(psi)
        if not abs(norm - 1.0) <= 1e-6:
            raise ConfigError(f"initial state norm is {norm:.6g}, expected 1")
        return psi / norm


def _amplitude(a) -> complex:
    if isinstance(a, (list, tuple)):
        if len(a) != 2:
            raise ValueError("amplitude pairs must be [re, im]")
        return complex(a[0], a[1])
    return complex(a)


# config name of each gate duration -> TimingParams field
_GATE_DURATION_FIELDS = {"single_qubit_ns": "single_qubit_ns",
                         "xy_buffer_ns": "buffer_ns",
                         "post_flux_wait_ns": "post_flux_wait_ns"}
_NOISE_FLOATS = ("jz_tilde_angle_deg", "crosstalk_phase_deg", "single_qubit_fidelity")


def _noise_from_dict(obj) -> NoiseParams | None:
    if obj == "off":
        return None
    if obj is None:
        return NoiseParams()
    if not isinstance(obj, dict):
        raise ConfigError("noise must be 'off' or an object")
    unknown = set(obj) - {"t1_us", "t2_us", *_NOISE_FLOATS, "theta_to_ns",
                          "gate_durations"}
    if unknown:
        raise ConfigError(f"unknown noise fields: {sorted(unknown)}")
    durations = obj.get("gate_durations", {})
    if not isinstance(durations, dict):
        raise ConfigError("noise.gate_durations must be an object")
    unknown = set(durations) - set(_GATE_DURATION_FIELDS)
    if unknown:
        raise ConfigError(f"unknown gate_durations keys: {sorted(unknown)}")
    try:
        timing = {_GATE_DURATION_FIELDS[k]: float(v) for k, v in durations.items()}
        if "theta_to_ns" in obj:
            timing["theta_to_ns"] = float(obj["theta_to_ns"])
        kwargs = {k: _array(obj[k], float) for k in ("t1_us", "t2_us") if k in obj}
        kwargs.update({k: float(obj[k]) for k in _NOISE_FLOATS if k in obj})
        return NoiseParams(timing=TimingParams(**timing), **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad noise config: {exc}") from exc


def _integral(v) -> int:
    """An integer given as 3, 3.0 or "3"; int() alone would truncate 2.7."""
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


def _array(v, convert) -> tuple:
    """A JSON array converted entry by entry; a string is not an array."""
    if not isinstance(v, list):
        raise ValueError(f"expected an array, got {v!r}")
    return tuple(convert(x) for x in v)


# config key -> conversion of its JSON value; initial_state and noise are
# parsed by RunConfig.psi0 and _noise_from_dict
_CONVERSIONS = {
    "protocol": str,
    "theta_grid": lambda v: _array(v, float),
    "n_steps": _integral,
    "n_list": lambda v: _array(v, _integral),
    "b_over_j": float,
    "j_sign": _integral,
}
_CONFIG_KEYS = {*_CONVERSIONS, "initial_state", "noise"}


def load_config(path: str | None, overrides: dict) -> RunConfig:
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    data.update({k: v for k, v in overrides.items() if v is not None})
    kwargs: dict = {}
    for key, convert in _CONVERSIONS.items():
        if key in data:
            try:
                kwargs[key] = convert(data[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad {key}: {exc}") from exc
    if not math.isfinite(kwargs.get("b_over_j", 0.0)):
        raise ConfigError("b_over_j must be finite")
    if "initial_state" in data:
        kwargs["initial_state"] = data["initial_state"]
    if "noise" in data:
        kwargs["noise"] = _noise_from_dict(data["noise"])
    return RunConfig(**kwargs)


def build_circuit(cfg: RunConfig, theta: float) -> Circuit:
    # compilers are looked up by name at call time, so a wrapper installed on
    # this module sees every call
    if cfg.protocol == "xy":
        return _compile(compile_xy, EvolutionParams(theta), cfg.j_sign)
    if cfg.protocol == "heisenberg":
        return _compile(compile_heisenberg, EvolutionParams(theta), cfg.j_sign)
    return _compile(compile_ising, EvolutionParams(theta, cfg.n_steps, cfg.b_over_j),
                    cfg.j_sign)


def _compile(compiler, params: EvolutionParams, j_sign: int) -> Circuit:
    """Run a protocol compiler; a gate angle that overflows is a config error."""
    try:
        return compiler(params, j_sign=j_sign)
    except ValueError as exc:
        raise ConfigError(f"cannot compile theta={params.theta!r} "
                          f"n={params.n_steps}: {exc}") from exc


def _check_finite(rows) -> None:
    for row in rows:
        for v in row:
            if isinstance(v, float) and not math.isfinite(v):
                raise FloatingPointError("non-finite value in output row")


def _write_csv(path: Path, header: list[str], rows) -> None:
    _check_finite(rows)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            _FMT(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _bloch_row(state) -> list[float]:
    if np.asarray(state).ndim == 1:
        rho = np.outer(state, np.conj(state))
    else:
        rho = np.asarray(state)
    vals = [float(np.trace(rho @ obs).real) for obs in _OBS]
    vals.append(negativity(rho))
    return vals


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    h = oracle_hamiltonian(cfg.protocol, cfg.b_over_j, cfg.j_sign)
    psi0 = cfg.psi0()
    rho0 = np.outer(psi0, psi0.conj())
    header = ["theta", *_OBS_COLS, "fid_vs_exact"]
    if cfg.noise is not None:
        header += [f"noisy_{k}" for k in _OBS_COLS] + ["noisy_fid_vs_exact"]
    rows = []
    for theta in cfg.theta_grid:
        circ = build_circuit(cfg, theta)
        psi_exact = exact_evolve(h, theta / 2.0, psi0)
        psi_circ = circuit_unitary(circ) @ psi0
        row = [float(theta)]
        row += _bloch_row(psi_exact)
        row.append(state_fidelity(psi_circ, psi_exact))
        if cfg.noise is not None:
            rho = simulate_noisy(circ, cfg.noise, rho0)
            row += _bloch_row(rho)
            row.append(state_fidelity(rho, psi_exact))
        rows.append(row)
    _write_csv(out_dir / f"{cfg.protocol}_dynamics.csv", header, rows)
    return EXIT_OK


def cmd_trotter_scan(cfg: RunConfig, out_dir: Path) -> int:
    h = oracle_hamiltonian("ising", cfg.b_over_j, cfg.j_sign)
    psi0 = replace(cfg, protocol="ising").psi0()
    rho0 = np.outer(psi0, psi0.conj())
    rows = []
    for theta in cfg.theta_grid:
        # compile first: an overflowing field angle is a config error, and the
        # oracle would only warn about it
        circuits = [_compile(compile_ising, EvolutionParams(theta, n, cfg.b_over_j),
                             cfg.j_sign) for n in cfg.n_list]
        psi_exact = exact_evolve(h, theta / 2.0, psi0)
        for n, circ in zip(cfg.n_list, circuits):
            psi_circ = circuit_unitary(circ) @ psi0
            fid_ideal = state_fidelity(psi_circ, psi_exact)
            if cfg.noise is not None:
                rho = simulate_noisy(circ, cfg.noise, rho0)
                fid_noisy = state_fidelity(rho, psi_exact)
            else:
                fid_noisy = fid_ideal
            _, f_s = predicted_fidelity(n, F_P_XY_REFERENCE)
            rows.append([float(theta), n, fid_ideal, fid_noisy, f_s])
    _write_csv(out_dir / "trotter_scan.csv",
               ["theta", "n", "fid_ideal_trotter", "fid_noisy", "f_s_predicted"],
               rows)
    return EXIT_OK


def cmd_tomography(cfg: RunConfig, out_dir: Path) -> int:
    psi0 = cfg.psi0()
    rho0 = np.outer(psi0, psi0.conj())
    rows = []
    for i, theta in enumerate(cfg.theta_grid):
        circ = build_circuit(cfg, theta)
        u_ideal = circuit_unitary(circ)
        if cfg.noise is not None:
            noise = cfg.noise

            def channel(rho, _c=circ, _n=noise):
                return simulate_noisy(_c, _n, rho)
        else:
            def channel(rho, _u=u_ideal):
                return _u @ rho @ _u.conj().T
        chi = process_tomography(channel)
        chi_ideal = chi_of_unitary(u_ideal)
        out_state = channel(rho0)
        psi_target = u_ideal @ psi0
        rep = FidelityReport(
            f_state=state_fidelity(out_state, psi_target),
            f_process=process_fidelity(chi, chi_ideal),
            negativity=min(negativity(out_state), 0.5),
        )
        (out_dir / f"chi_{cfg.protocol}_theta{i:03d}.json").write_text(
            chi_to_json(chi), newline="\n")
        rows.append([float(theta), rep.f_process, rep.f_state, rep.negativity])
    _write_csv(out_dir / "tomography_report.csv",
               ["theta", "f_process", "f_state", "negativity"], rows)
    return EXIT_OK


def cmd_schedule(cfg: RunConfig, out_dir: Path, dump_circuit: bool,
                 dump_timeline: bool, circuit_in: str | None) -> int:
    timing = cfg.noise.timing if cfg.noise is not None else TimingParams()
    if not dump_circuit and not dump_timeline:
        dump_circuit = dump_timeline = True
    if circuit_in is not None:
        try:
            circuits = [("input", circuit_from_text(Path(circuit_in).read_text()))]
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"cannot read circuit {circuit_in}: {exc!r}") from exc
    else:
        circuits = [(f"theta{i:03d}", build_circuit(cfg, theta))
                    for i, theta in enumerate(cfg.theta_grid)]
    all_violations: list[str] = []
    for tag, circ in circuits:
        try:
            timeline = schedule(circ, timing)
        except ValueError as exc:
            raise ConfigError(f"cannot schedule {tag}: {exc}") from exc
        violations = validate(timeline, timing)
        if dump_circuit:
            (out_dir / f"{cfg.protocol}_{tag}_circuit.txt").write_text(
                circuit_to_text(circ), newline="\n")
        if dump_timeline:
            (out_dir / f"{cfg.protocol}_{tag}_timeline.csv").write_text(
                timeline_to_csv(timeline), newline="\n")
        all_violations += [f"{tag}: {v}" for v in violations]
    if all_violations:
        for v in all_violations:
            print(v, file=sys.stderr)
        return EXIT_TIMELINE
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--no-noise", action="store_true", help="disable the noise model")
    p.add_argument("--protocol", choices=PROTOCOLS)
    p.add_argument("--thetas", help="comma-separated phase angles (radians)")
    p.add_argument("--n-steps", type=int, dest="n_steps")
    p.add_argument("--b-over-j", type=float, dest="b_over_j")
    p.add_argument("--initial-state", dest="initial_state",
                   help="preset name (fig2, fig3, up-up, bell)")
    p.add_argument("--j-sign", type=int, dest="j_sign", choices=(-1, 1))


def _overrides(args) -> dict:
    ov: dict = {}
    for key in ("protocol", "n_steps", "b_over_j", "initial_state", "j_sign"):
        val = getattr(args, key, None)
        if val is not None:
            ov[key] = val
    # comma-separated lists are converted, and rejected (an empty one too),
    # by load_config
    for key, flag in (("theta_grid", "thetas"), ("n_list", "n_list")):
        if getattr(args, flag, None) is not None:
            ov[key] = getattr(args, flag).split(",")
    if args.no_noise:
        ov["noise"] = "off"
    return ov


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinsim",
        description="Digital quantum simulation of two-spin Heisenberg and "
                    "transverse-field Ising dynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="dynamics CSV over a phase-angle grid")
    _add_common(p_sim)

    p_scan = sub.add_parser("trotter-scan", help="Trotter fidelity scan CSV")
    _add_common(p_scan)
    p_scan.add_argument("--n-list", dest="n_list",
                        help="comma-separated Trotter step counts")

    p_tomo = sub.add_parser("tomography", help="process tomography chi + report")
    _add_common(p_tomo)

    p_sched = sub.add_parser("schedule", help="pulse timeline and circuit dumps")
    _add_common(p_sched)
    p_sched.add_argument("--dump-circuit", action="store_true")
    p_sched.add_argument("--dump-timeline", action="store_true")
    p_sched.add_argument("--circuit-in", dest="circuit_in",
                         help="schedule a dumped circuit file instead of compiling")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides(args))
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "trotter-scan":
            return cmd_trotter_scan(cfg, out_dir)
        if args.command == "tomography":
            return cmd_tomography(cfg, out_dir)
        return cmd_schedule(cfg, out_dir, args.dump_circuit, args.dump_timeline,
                            args.circuit_in)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # numerical or I/O failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
