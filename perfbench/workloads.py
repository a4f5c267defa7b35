"""Workload definitions: the CLI calls each workload makes, generated from a seed.

A workload is a list of jobs. A job is one ``spinsim`` CLI call with its own
``--config`` JSON and flags, writing into its own output directory. Seed 0
keeps the CLI defaults (the 33-point grid k*pi/16, B = 3J, j_sign = -1 and
the fig2/fig3 initial states). Any other seed draws the interior of the theta
grid (theta = 0 stays first and 2*pi last, as in the default grid), the extra
angles of the ising jobs, the sign of B/J, j_sign and the initial-state
amplitudes. The structure (protocols, step counts, grid sizes) is the same
for every seed, so every seed does the same amount of work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

GRID_POINTS = 33
SCAN_N_LIST = (1, 2, 3, 5, 10, 20)
ISING_STEPS = 3
B_OVER_J = 3.0
SQ2 = 1.0 / math.sqrt(2.0)
# Initial states of the CLI presets, restated so output checks do not read
# them from the program under test.
PRESET_STATES = {
    "fig2": (SQ2, SQ2, 0.0, 0.0),
    "fig3": (SQ2, -1j * SQ2, 0.0, 0.0),
}


@dataclass(frozen=True)
class Inputs:
    """The values a seed chooses; None means the CLI default."""

    seed: int
    grid: tuple[float, ...]
    b_over_j: float
    j_sign: int
    amplitudes: tuple[complex, ...] | None

    def angles(self, defaults: tuple[float, ...], rng_key: str) -> tuple[float, ...]:
        """A fixed-size angle list: ``defaults`` at seed 0, else drawn.

        A leading 0 is kept; the other angles are drawn in (0, 2*pi).
        """
        if self.seed == 0:
            return defaults
        rng = random.Random(f"{self.seed}:{rng_key}")
        keep = (0.0,) if defaults[0] == 0.0 else ()
        return keep + _sorted_draws(rng, len(defaults) - len(keep))

    def state(self, protocol: str) -> tuple[complex, ...]:
        if self.amplitudes is not None:
            return self.amplitudes
        return PRESET_STATES["fig3" if protocol == "ising" else "fig2"]


@dataclass(frozen=True)
class Job:
    """One CLI call: ``spinsim <command> --config <file> <flags> --out <dir>``."""

    name: str
    command: str
    protocol: str
    config: dict
    flags: tuple[str, ...]
    thetas: tuple[float, ...]
    n_values: tuple[int, ...] = (1,)  # Trotter step counts per theta
    circuit_in: str | None = None  # job whose dumped circuit this job reads

    @property
    def circuits(self) -> int:
        return len(self.thetas) * len(self.n_values)


def _sorted_draws(rng: random.Random, k: int) -> tuple[float, ...]:
    while True:
        draws = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(k))
        if all(a < b for a, b in zip([0.0] + draws, draws)):
            return tuple(draws)


def make_inputs(seed: int) -> Inputs:
    default_grid = tuple(k * math.pi / 16.0 for k in range(GRID_POINTS))
    if seed == 0:
        return Inputs(0, default_grid, B_OVER_J, -1, None)
    rng = random.Random(seed)
    grid = (0.0,) + _sorted_draws(rng, GRID_POINTS - 2) + (2.0 * math.pi,)
    b_over_j = B_OVER_J * rng.choice((-1.0, 1.0))
    j_sign = rng.choice((-1, 1))
    amps = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(4)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return Inputs(seed, grid, b_over_j, j_sign, tuple(a / norm for a in amps))


def _job(inputs: Inputs, name: str, command: str, protocol: str,
         thetas: tuple[float, ...] | None = None, n_steps: int = 1,
         n_list: tuple[int, ...] | None = None,
         circuit_in: str | None = None) -> Job:
    """Config JSON carries the drawn values; flags carry the fixed structure."""
    config: dict = {}
    if thetas is not None or inputs.seed != 0:
        config["theta_grid"] = list(thetas if thetas is not None else inputs.grid)
    if inputs.seed != 0:
        config["b_over_j"] = inputs.b_over_j
        config["j_sign"] = inputs.j_sign
        config["initial_state"] = [[a.real, a.imag] for a in inputs.amplitudes]
    flags = ["--protocol", protocol]
    if protocol == "ising" and command != "trotter-scan":
        flags += ["--n-steps", str(n_steps)]
    if n_list is not None:
        flags += ["--n-list", ",".join(str(n) for n in n_list)]
    return Job(name=name, command=command, protocol=protocol, config=config,
               flags=tuple(flags),
               thetas=tuple(thetas if thetas is not None else inputs.grid),
               n_values=tuple(n_list) if n_list else (n_steps,),
               circuit_in=circuit_in)


def sweep(inputs: Inputs) -> list[Job]:
    """Deep circuits, one state each: noise propagation and exact dynamics."""
    return [
        _job(inputs, "simulate-xy", "simulate", "xy"),
        _job(inputs, "simulate-heisenberg", "simulate", "heisenberg"),
        _job(inputs, "simulate-ising", "simulate", "ising", n_steps=ISING_STEPS),
        _job(inputs, "scan-ising", "trotter-scan", "ising", n_list=SCAN_N_LIST),
    ]


def tomo(inputs: Inputs) -> list[Job]:
    """Shallow circuits run on 16 tomography inputs each: the most shared work."""
    quarter = (0.0, math.pi / 4.0, math.pi / 2.0, math.pi)
    return [
        _job(inputs, "tomo-xy", "tomography", "xy"),
        _job(inputs, "tomo-heisenberg", "tomography", "heisenberg"),
        _job(inputs, "tomo-ising", "tomography", "ising",
             thetas=inputs.angles(quarter, "tomo-ising"), n_steps=ISING_STEPS),
    ]


def pulse(inputs: Inputs) -> list[Job]:
    """Scheduler only: many short circuits and a few long ones, then a reschedule."""
    long_angle = inputs.angles((math.pi / 2.0,), "pulse-n200")
    return [
        _job(inputs, "schedule-xy", "schedule", "xy"),
        _job(inputs, "schedule-heisenberg", "schedule", "heisenberg"),
        _job(inputs, "schedule-ising", "schedule", "ising", n_steps=ISING_STEPS),
        _job(inputs, "schedule-ising-n100", "schedule", "ising",
             thetas=inputs.angles((math.pi / 4.0, math.pi), "pulse-n100"),
             n_steps=100),
        _job(inputs, "schedule-ising-n200", "schedule", "ising",
             thetas=long_angle, n_steps=200),
        _job(inputs, "reschedule-ising-n200", "schedule", "ising",
             thetas=long_angle, n_steps=200,
             circuit_in="schedule-ising-n200"),
    ]


WORKLOADS = {"sweep": sweep, "tomo": tomo, "pulse": pulse}


def probe_calls(workload: str, inputs: Inputs) -> list[Job]:
    """One one-circuit job per command the workload uses (for set-up time)."""
    theta = inputs.grid[1]
    single = {
        "sweep": [("simulate", "ising", None), ("trotter-scan", "ising", (1,))],
        "tomo": [("tomography", "xy", None)],
        "pulse": [("schedule", "ising", None)],
    }[workload]
    return [_job(inputs, f"probe-{command}", command, protocol, thetas=(theta,),
                 n_steps=ISING_STEPS, n_list=n_list)
            for command, protocol, n_list in single]
