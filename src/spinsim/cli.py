"""Command-line front end: dynamics, Trotter scans, tomography and schedules.

Outputs are plain CSV/JSON files with pinned formatting (12 significant
digits, '.' decimal, ',' separator, Unix newlines) so runs are byte-stable
for a fixed configuration.

In dynamics CSVs the observable columns (sx1..sz2, xx_corr, negativity)
trace the exactly solved model, ``fid_vs_exact`` is the overlap of the
compiled protocol's output with that exact state, and the ``noisy_*``
columns repeat the observables for the noise-model simulation of the
protocol.

Exit codes: 0 success, 2 configuration error, 3 numerical or I/O error, 4
timeline validation failure.  Any other exception is a bug and propagates.

Every command compiles its circuits through ``build_circuit``.  A circuit
stores one Trotter step and its count n, so it is small at any n up to
``ir.MAX_STEPS``, which ``RunConfig`` checks.  The three numeric commands
share one pipeline, ``_run``: it compiles the grid's circuits theta-major,
runs each theta's noisy work once its circuits are compiled, and hands all
the circuits to one stacked ``circuit_unitary`` call.
``simulate`` and ``trotter-scan`` take their states from it through
``_states``, and ``trotter-scan`` runs the ``simulate`` pipeline of the Ising
protocol once for each n of its list.  Their noisy work is the circuit's
noisy state; ``tomography``'s is the 16 runs of process tomography and the
report state, all on one composed superoperator (without noise, chi comes
from the stacked unitaries).  The commands then analyse the whole grid in
stacked calls: the exact states from one eigendecomposition of the model
Hamiltonian, and the observables, negativities and fidelities as arrays.  So
a failure of the exact evolution shows after the grid's circuits have run,
and names its theta.

``load_config`` reads each JSON object of a config (the top level, ``noise``
and ``noise.gate_durations``) through its table of conversions in one
reader, ``_fields``, so every config error names its key path.  Each flag's
dest is its config key.  ``main`` clips a long config error message in its
middle, so the line stays under 200 characters and keeps the key path.

Configs, circuits and schedules are plain Python.  ``simulate``,
``trotter-scan`` and ``tomography`` import numpy and the numeric modules on
first use and bind their names as module globals, so ``schedule`` and
``--help`` never load numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import namedtuple
from pathlib import Path

from .device import F_P_XY_REFERENCE, NoiseParams, TimingParams, predicted_fidelity
from .ir import (MAX_STEPS, Circuit, EvolutionParams, _Record, circuit_from_text,
                 circuit_to_text, compile_heisenberg, compile_ising, compile_xy)
from .scheduler import _FMT, schedule, timeline_to_csv, validate

# numeric names, bound as globals by _bind_numerics on first use, so that
# `spinsim schedule` never loads numpy
_NUMERIC = ("circuit_unitary", "exact_evolve", "oracle_hamiltonian", "simulate_noisy",
            "chi_of_unitary", "chi_to_json", "negativity", "process_fidelity",
            "process_tomography", "state_fidelity")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_TIMELINE = 4

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
# Pauli string of each column before negativity; qubit 1 is written first
_OBS_LABELS = ("XI", "YI", "ZI", "IX", "IY", "IZ", "XX")


def _bind_numerics() -> None:
    """Bind numpy as ``np``, the ``_NUMERIC`` names and ``_OBS`` as globals.

    Every numeric command calls this first.  The names are read from the
    package, which imports each from its home module.  A name already bound
    is kept, so a wrapper installed on this module, before or after the first
    call, is the one the commands call.
    """
    import numpy
    g = globals()
    g.setdefault("np", numpy)
    for name in _NUMERIC:
        g.setdefault(name, getattr(sys.modules[__package__], name))
    if "_OBS" not in g:  # the Pauli observables of _OBS_LABELS as a (7, 4, 4) stack
        from .tomography import PAULI_LABELS_2Q as labels, PAULI_MATRICES_2Q as paulis
        g["_OBS"] = numpy.array([paulis[labels.index(label)] for label in _OBS_LABELS])


def __getattr__(name: str):
    """A numeric name read before any command has bound it, e.g. to wrap it."""
    if name in _NUMERIC or name in ("np", "_OBS"):
        _bind_numerics()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ConfigError(ValueError):
    pass


class RunConfig(namedtuple("RunConfig", "protocol theta_grid n_steps n_list b_over_j "
                           "initial_state noise j_sign",
                           defaults=("xy", _DEFAULT_GRID, 1, (1, 2, 3, 4, 5), 3.0, None,
                                     NoiseParams(), -1)), _Record):
    """One run's checked config.  ``initial_state`` is a preset name, four
    amplitudes, or None for the protocol's default; ``noise`` is None when
    the noise model is off."""

    __slots__ = ()

    def _check(self):
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if not math.isfinite(self.b_over_j):
            raise ConfigError("b_over_j must be finite")
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
        if max(self.n_steps, *self.n_list) > MAX_STEPS:
            raise ConfigError(f"n_steps and the n_list entries must be <= {MAX_STEPS}")
        if self.j_sign not in (-1, 1):
            raise ConfigError("j_sign must be +1 or -1")
        self._amplitudes()  # validate the initial state eagerly, without numpy

    def _amplitudes(self) -> tuple[tuple[complex, ...], bool]:
        """The initial state's amplitudes, checked in plain Python, and
        whether they were given as numbers (and are still to be normalised)."""
        spec = self.initial_state
        if spec is None:
            spec = "fig3" if self.protocol == "ising" else "fig2"
        if isinstance(spec, str):
            if spec not in PRESETS:
                raise ConfigError(
                    f"unknown initial-state preset {spec!r}; "
                    f"choose from {sorted(PRESETS)} or give 4 amplitudes")
            return PRESETS[spec], False
        try:
            vec = tuple(_amplitude(a) for a in spec)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad initial_state: {exc}") from exc
        if len(vec) != 4:
            raise ConfigError("initial_state needs exactly 4 amplitudes")
        # np.linalg.norm to the bit: the squares summed in the order of
        # numpy's dot, re.re + im.im, each as (x0^2 + x2^2) + (x1^2 + x3^2)
        norm = math.sqrt(sum((x[0] * x[0] + x[2] * x[2]) + (x[1] * x[1] + x[3] * x[3])
                             for x in ([a.real for a in vec], [a.imag for a in vec])))
        if not abs(norm - 1.0) <= 1e-6:
            raise ConfigError(f"initial state norm is {norm:.6g}, expected 1")
        return vec, True

    def psi0(self) -> np.ndarray:
        import numpy as np
        vec, given = self._amplitudes()
        psi = np.array(vec, dtype=complex)
        return psi / np.linalg.norm(psi) if given else psi


def _amplitude(a) -> complex:
    """A number or an [re, im] pair; true and false are not numbers."""
    if isinstance(a, (list, tuple)):
        if len(a) != 2:
            raise ValueError("amplitude pairs must be [re, im]")
    else:
        a = (a,)
    for x in a:
        if isinstance(x, bool):
            raise ValueError(f"{x!r} is not a number")
    try:
        return complex(*a)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(str(exc)) from exc


def _integral(v) -> int:
    """An integer given as 3, 3.0 or "3"; int() alone would truncate 2.7."""
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


def _real(v) -> float:
    """A number given as 2.5, 2 or "2.5"; float() alone would read true as 1.0."""
    if isinstance(v, bool):
        raise ValueError(f"{v!r} is not a number")
    try:
        return float(v)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(str(exc)) from exc


def _array(v, convert) -> tuple:
    """A JSON array converted entry by entry; a string is not an array."""
    if not isinstance(v, list):
        raise ValueError(f"expected an array, got {v!r}")
    return tuple(convert(x) for x in v)


def _reals(v) -> tuple:
    return _array(v, _real)


def _initial_state(v):
    """``initial_state`` with its arrays as tuples; ``RunConfig`` checks it."""
    if not isinstance(v, list):
        return v  # a preset name, or null for the protocol's default
    return tuple(tuple(a) if isinstance(a, list) else a for a in v)


def _fields(obj, table: dict, path: str = "") -> dict:
    """The keys of JSON object ``obj``, each converted by its entry in ``table``.

    ``path`` is the object's key path in the config, "" at the top.  A value
    that is not an object, an unknown key and a value that its conversion
    rejects each raise a one-line ``ConfigError`` that names the key path.  A
    nested object's reader names its own keys, so its ``ConfigError`` passes
    through unwrapped.
    """
    prefix = f"{path}." if path else ""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config file'} must hold a JSON object")
    unknown = sorted(prefix + key for key in set(obj) - set(table))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    out = {}
    for key, convert in table.items():
        if key in obj:
            try:
                out[key] = convert(obj[key])
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad {prefix}{key}: {exc}") from exc
    return out


def _timing(v) -> TimingParams:
    """``noise.gate_durations``; its ``xy_buffer_ns`` is ``TimingParams.buffer_ns``."""
    ns = _fields(v, _GATE_DURATIONS, "noise.gate_durations")
    return TimingParams(**{"buffer_ns" if key == "xy_buffer_ns" else key: t
                           for key, t in ns.items()})


def _noise(v) -> NoiseParams | None:
    """The noise block: "off", null for the defaults, or an object."""
    if v == "off":
        return None
    if not isinstance(v, (dict, type(None))):
        raise ConfigError("noise must be 'off' or an object")
    kwargs = _fields(v or {}, _NOISE, "noise")
    timing = kwargs.pop("gate_durations", TimingParams())
    if "theta_to_ns" in kwargs:
        timing = timing._replace(theta_to_ns=kwargs.pop("theta_to_ns"))
    return NoiseParams(timing=timing, **kwargs)


# config key -> conversion of its JSON value, at each level of the config
_GATE_DURATIONS = dict.fromkeys(("single_qubit_ns", "xy_buffer_ns", "post_flux_wait_ns"), _real)
_NOISE = {"gate_durations": _timing, "theta_to_ns": _real, "t1_us": _reals, "t2_us": _reals,
          **dict.fromkeys(("jz_tilde_angle_deg", "crosstalk_phase_deg",
                           "single_qubit_fidelity"), _real)}
_CONFIG = {"protocol": str, "theta_grid": _reals, "n_steps": _integral,
           "n_list": lambda v: _array(v, _integral), "b_over_j": _real, "j_sign": _integral,
           "initial_state": _initial_state, "noise": _noise}


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """The run config of a JSON file (None for none) with the ``overrides``
    that are not None on top."""
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:  # JSON and UTF-8 errors are ValueErrors
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if isinstance(data, dict):
        data.update((key, v) for key, v in overrides.items() if v is not None)
    return RunConfig(**_fields(data, _CONFIG))


def build_circuit(cfg: RunConfig, theta: float) -> Circuit:
    """Compile the config's protocol at theta; an overflowing angle is a
    config error.  The xy and heisenberg compilers read only theta."""
    # the compiler is looked up by name at call time, so a wrapper installed
    # on this module sees every call
    compiler = {"xy": compile_xy, "heisenberg": compile_heisenberg,
                "ising": compile_ising}[cfg.protocol]
    try:
        return compiler(EvolutionParams(theta, cfg.n_steps, cfg.b_over_j), j_sign=cfg.j_sign)
    except (OverflowError, ValueError) as exc:
        raise ConfigError(f"cannot compile theta={theta!r} n={cfg.n_steps}: {exc}") from exc


def _check_finite(rows) -> None:
    for row in rows:
        for v in row:
            if isinstance(v, float) and not math.isfinite(v):
                raise FloatingPointError("non-finite value in output row")


def _csv_text(header: list[str], rows) -> str:
    _check_finite(rows)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            _FMT(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.write_text(_csv_text(header, rows), newline="\n")


def _observables(states) -> np.ndarray:
    """The (T, 8) ``_OBS_COLS`` values of T state vectors or density matrices."""
    rho = np.asarray(states)
    if rho.ndim == 2:
        rho = rho[:, :, None] * rho.conj()[:, None, :]
    # Tr(rho @ obs) as a stack of products, which keeps the bits of one
    # product at a time; one einsum would sum the terms in another order
    vals = np.trace(rho[:, None] @ _OBS, axis1=-2, axis2=-1).real
    return np.column_stack([vals, negativity(rho)])


def _run(cfgs: list[RunConfig], noisy) -> tuple:
    """The (T, 4, 4) ideal unitaries of the configs' circuits, theta-major (one
    circuit per config at each theta), and the list of ``noisy(circuit)`` of
    each circuit.

    The configs differ only in their step count.  Each theta's circuits all
    compile before any of them runs, so an overflowing field angle is a
    config error, whatever the noisy work of that theta would raise.
    """
    circuits, results = [], []
    for theta in cfgs[0].theta_grid:
        circuits += [build_circuit(c, theta) for c in cfgs]
        results += map(noisy, circuits[-len(cfgs):])
    return circuit_unitary(circuits), results


def _states(cfgs: list[RunConfig]) -> tuple:
    """The ideal kets, noisy states (None each without noise) and exact
    states of ``_run``'s circuits.  The exact states come from one
    ``exact_evolve`` call, repeated once per config."""
    cfg = cfgs[0]
    h = oracle_hamiltonian(cfg.protocol, cfg.b_over_j, cfg.j_sign)
    psi0 = cfg.psi0()
    rho0 = np.outer(psi0, psi0.conj())
    us, rhos = _run(cfgs, lambda circuit: (
        None if cfg.noise is None else simulate_noisy(circuit, cfg.noise, rho0)))
    psi_exact = exact_evolve(h, np.divide(cfg.theta_grid, 2.0), psi0)
    return np.matvec(us, psi0), rhos, np.repeat(psi_exact, len(cfgs), axis=0)


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    _bind_numerics()
    header = ["theta", *_OBS_COLS, "fid_vs_exact"]
    if cfg.noise is not None:
        header += [f"noisy_{k}" for k in _OBS_COLS] + ["noisy_fid_vs_exact"]
    kets, rhos, psi_exact = _states([cfg])
    cols = [_observables(psi_exact), state_fidelity(kets, psi_exact)]
    if cfg.noise is not None:
        cols += [_observables(rhos), state_fidelity(rhos, psi_exact)]
    rows = np.column_stack([cfg.theta_grid, *cols]).tolist()
    _write_csv(out_dir / f"{cfg.protocol}_dynamics.csv", header, rows)
    return EXIT_OK


def cmd_trotter_scan(cfg: RunConfig, out_dir: Path) -> int:
    _bind_numerics()
    kets, rhos, psi_exact = _states([cfg._replace(protocol="ising", n_steps=n)
                                     for n in cfg.n_list])
    fid_ideal = state_fidelity(kets, psi_exact).tolist()
    fid_noisy = fid_ideal if cfg.noise is None else state_fidelity(rhos, psi_exact).tolist()
    f_s = {n: predicted_fidelity(n, F_P_XY_REFERENCE)[1] for n in cfg.n_list}
    cells = [(float(theta), n) for theta in cfg.theta_grid for n in cfg.n_list]
    rows = [[theta, n, fi, fn, f_s[n]]
            for (theta, n), fi, fn in zip(cells, fid_ideal, fid_noisy)]
    _write_csv(out_dir / "trotter_scan.csv",
               ["theta", "n", "fid_ideal_trotter", "fid_noisy", "f_s_predicted"],
               rows)
    return EXIT_OK


def _tomography(channel, rho0) -> tuple:
    """chi of the channel and its output state for rho0: 17 channel runs."""
    return process_tomography(channel), channel(rho0)


def cmd_tomography(cfg: RunConfig, out_dir: Path) -> int:
    _bind_numerics()
    psi0 = cfg.psi0()
    rho0 = np.outer(psi0, psi0.conj())
    # with noise, each circuit's 17 runs reuse its one composed superoperator;
    # without, chi comes from the unitaries once the whole grid has run
    us, runs = _run([cfg], lambda circuit: None if cfg.noise is None else _tomography(
        lambda rho: simulate_noisy(circuit, cfg.noise, rho), rho0))
    if cfg.noise is None:
        runs = [_tomography(lambda rho: u @ rho @ u.conj().T, rho0) for u in us]
    chis, outs = zip(*runs)
    # every text is built and checked before the first file is written, so a
    # numerical failure leaves no partial output
    chi_texts = [chi_to_json(chi) for chi in chis]
    f_process = [process_fidelity(chi, chi_of_unitary(u)) for chi, u in zip(chis, us)]
    rows = np.column_stack([cfg.theta_grid, f_process, state_fidelity(outs, np.matvec(us, psi0)),
                            np.minimum(negativity(outs), 0.5)]).tolist()
    report = _csv_text(["theta", "f_process", "f_state", "negativity"], rows)
    for i, text in enumerate(chi_texts):
        (out_dir / f"chi_{cfg.protocol}_theta{i:03d}.json").write_text(text, newline="\n")
    (out_dir / "tomography_report.csv").write_text(report, newline="\n")
    return EXIT_OK


def cmd_schedule(cfg: RunConfig, out_dir: Path, dump_circuit: bool,
                 dump_timeline: bool, circuit_in: str | None) -> int:
    timing = cfg.noise.timing if cfg.noise is not None else TimingParams()
    if not dump_circuit and not dump_timeline:
        dump_circuit = dump_timeline = True
    if circuit_in is not None:
        try:
            circuits = [("input", circuit_from_text(Path(circuit_in).read_text()))]
        except (OSError, TypeError, ValueError) as exc:
            raise ConfigError(f"cannot read circuit {circuit_in}: {exc!r}") from exc
    else:
        circuits = [(f"theta{i:03d}", build_circuit(cfg, theta))
                    for i, theta in enumerate(cfg.theta_grid)]
    all_violations: list[str] = []
    for tag, circ in circuits:
        try:  # the gate tuple is built here, so memory may run out
            timeline = schedule(circ, timing)
        except (ValueError, MemoryError) as exc:
            raise ConfigError(f"cannot schedule {tag}: {str(exc) or type(exc).__name__}") from exc
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


def _split(text: str) -> list[str]:
    return text.split(",")


def _add_common(p: argparse.ArgumentParser) -> None:
    # each config flag's dest is its config key; _overrides reads them by name
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--no-noise", action="store_const", const="off", dest="noise",
                   help="disable the noise model")
    p.add_argument("--protocol", choices=PROTOCOLS)
    p.add_argument("--thetas", type=_split, dest="theta_grid", metavar="THETAS",
                   help="comma-separated phase angles (radians)")
    p.add_argument("--n-steps", type=int)
    p.add_argument("--b-over-j", type=float)
    p.add_argument("--initial-state", help="preset name (fig2, fig3, up-up, bell)")
    p.add_argument("--j-sign", type=int, choices=(-1, 1))


def _overrides(args) -> dict:
    """The config flags, None where unset.  ``schedule`` has no noise model:
    it reads its timings from the noise block, so it ignores ``--no-noise``."""
    return {key: v for key, v in vars(args).items()
            if key in _CONFIG and not (key == "noise" and args.command == "schedule")}


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
    p_scan.add_argument("--n-list", type=_split, help="comma-separated Trotter step counts")

    p_tomo = sub.add_parser("tomography", help="process tomography chi + report")
    _add_common(p_tomo)

    p_sched = sub.add_parser("schedule", help="pulse timeline and circuit dumps")
    _add_common(p_sched)
    p_sched.add_argument("--dump-circuit", action="store_true")
    p_sched.add_argument("--dump-timeline", action="store_true")
    p_sched.add_argument("--circuit-in",
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
        # a long line keeps its start, which names the key path, and its end,
        # so with its newline it stays under 200 characters
        line = f"config error: {exc}"
        print(line if len(line) < 199 else f"{line[:115]}...{line[-80:]}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, ValueError, RuntimeError, OSError) as exc:
        # numerical or I/O failure; any other exception is a bug and propagates
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
