"""Gate set, circuit IR, the digital decompositions of the spin models and
the circuit text format, in plain Python.

Nothing here imports numpy, so lowering a circuit to a pulse timeline
(``spinsim schedule``) never loads it; the gate matrices and the propagation
engine live in ``circuits``.  Every circuit acts on the two-qubit register;
``Circuit`` rejects any other size.  ``compile_xy``, ``compile_heisenberg`` and
``compile_ising`` are the one definition of each protocol's gate sequence.

``XY(theta)`` is the exchange gate at quantum phase angle theta = 2|J|tau and
``ROT(a, phi, q)`` = exp(-i phi sigma_a / 2) on qubit q; ``circuits`` pins
their matrices.

The Heisenberg compilation conjugates the exchange gate into the XZ and YZ
bases with x/y rotations by +-pi/2; the basis-change signs are fixed here so
that each block equals the corresponding two-axis exponential exactly.  The
transverse-field Ising compilation uses a symmetric split: half-angle field
rotations flank the spin-echo XX block in every step.  The local error of one
step is O((theta/n)^3), so the global error amplitude after n steps is
O(1/n^2) and the state infidelity, its square, is O(1/n^4).  Each step also
carries the two consecutive refocusing pi pulses on qubit Q2 (a net
identity) so that noisy simulations see the same pulse load as the hardware
sequence.  ``compile_ising`` builds one Trotter step and repeats it n times,
and ``repeated_step`` recovers that step from any circuit whose gates are
exactly ``n_steps`` copies of one step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class Gate:
    """One gate event: kind is "XY", "ROT" or "WAIT"."""

    kind: str
    theta: float = 0.0        # XY: quantum phase angle 2|J|tau, >= 0
    axis: str = ""            # ROT: "x" | "y" | "z"
    angle: float = 0.0        # ROT: rotation angle in radians
    qubit: int = 0            # ROT: target qubit
    duration_ns: float = 0.0  # WAIT: idle time

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.angle)
                and math.isfinite(self.duration_ns)):
            raise ValueError("gate angles and durations must be finite")
        if self.kind == "XY":
            if self.theta < 0:
                raise ValueError("XY phase angle must be non-negative")
        elif self.kind == "ROT":
            if self.axis not in ("x", "y", "z"):
                raise ValueError(f"unknown rotation axis {self.axis!r}")
            if self.qubit < 0:
                raise ValueError("qubit index must be non-negative")
        elif self.kind == "WAIT":
            if self.duration_ns < 0:
                raise ValueError("wait duration must be non-negative")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")

    @classmethod
    def xy(cls, theta: float) -> "Gate":
        return cls(kind="XY", theta=theta)

    @classmethod
    def rot(cls, axis: str, angle: float, qubit: int) -> "Gate":
        return cls(kind="ROT", axis=axis, angle=angle, qubit=qubit)

    @classmethod
    def wait(cls, duration_ns: float) -> "Gate":
        return cls(kind="WAIT", duration_ns=duration_ns)


@dataclass(frozen=True)
class Circuit:
    """A gate sequence on the two-qubit register."""

    n_qubits: int
    gates: tuple[Gate, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_qubits != 2:
            raise ValueError(f"circuits act on two qubits, got n_qubits={self.n_qubits}")
        for g in self.gates:
            if g.kind == "ROT" and g.qubit >= 2:
                raise ValueError(f"gate targets qubit {g.qubit} of 2")


@dataclass(frozen=True)
class EvolutionParams:
    """Total phase angle, Trotter step count and field-to-coupling ratio."""

    theta: float
    n_steps: int = 1
    b_over_j: float = 0.0

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")


def repeated_step(c: Circuit) -> tuple[tuple[Gate, ...], int]:
    """The circuit as (step, n) with ``step * n == c.gates``.

    Metadata ``n_steps`` is only a candidate for n: a circuit whose gates are
    not that many copies of one step comes back whole, with n = 1.
    """
    n = c.metadata.get("n_steps", 1)
    if isinstance(n, int) and 1 < n <= len(c.gates) and len(c.gates) % n == 0:
        step = c.gates[:len(c.gates) // n]
        if step * n == c.gates:
            return step, n
    return c.gates, 1


def compile_xy(params: EvolutionParams, j_sign: int = -1) -> Circuit:
    """Exchange-coupling evolution: one XY gate at phase angle theta, exact."""
    meta = {"protocol": "xy", "theta": params.theta, "n_steps": 1, "j_sign": j_sign}
    return Circuit(n_qubits=2, gates=(Gate.xy(params.theta),), metadata=meta)


def compile_heisenberg(params: EvolutionParams, j_sign: int = -1) -> Circuit:
    """Isotropic Heisenberg evolution as XY, XZ and YZ exchange blocks.

    The XZ (YZ) block conjugates the XY gate on both qubits with x (y)
    rotations by pi/2, turning the YY (XX) term into ZZ.  The three block
    generators commute for two spins, so a single step is exact: the circuit
    unitary equals exp(-i J (XX + YY + ZZ) theta/2) with J = j_sign.
    """
    th = params.theta
    gates: list[Gate] = [Gate.xy(th)]
    for axis in ("x", "y"):
        gates += [
            Gate.rot(axis, -HALF_PI, 0),
            Gate.rot(axis, -HALF_PI, 1),
            Gate.xy(th),
            Gate.rot(axis, HALF_PI, 0),
            Gate.rot(axis, HALF_PI, 1),
        ]
    meta = {"protocol": "heisenberg", "theta": th, "n_steps": 1,
            "j_sign": j_sign, "gates_per_step": len(gates)}
    return Circuit(n_qubits=2, gates=tuple(gates), metadata=meta)


def compile_ising(params: EvolutionParams, j_sign: int = -1) -> Circuit:
    """Trotterized transverse-field Ising evolution.

    Each step advances phase theta/n.  The interaction part applies the XY
    gate twice, once enclosed by pi pulses on Q1, which flips the sign of the
    YY term so the pair composes to a pure XX exponential.  The field part is
    split symmetrically: z rotations by half the per-step angle B*tau/n flank
    the interaction block.  The local error of one step is O((theta/n)^3),
    so the global error amplitude is O(1/n^2) and the state infidelity is
    O(1/n^4).  Two consecutive pi pulses on Q2 per step mirror the hardware
    refocusing sequence; their net effect is the identity.
    """
    n = params.n_steps
    th = params.theta
    step_theta = th / n
    # Per-step z rotation angle is B*tau/n with B = j_sign*b_over_j in units
    # of |J| and tau = theta/2; each flanking gate carries half of it.
    phi_half = j_sign * params.b_over_j * th / (4.0 * n)
    field_half = ((Gate.rot("z", phi_half, 0), Gate.rot("z", phi_half, 1))
                  if phi_half != 0.0 else ())
    step = (*field_half,
            Gate.xy(step_theta),
            Gate.rot("x", math.pi, 0),
            Gate.rot("x", math.pi, 1),
            Gate.rot("x", math.pi, 1),
            Gate.xy(step_theta),
            Gate.rot("x", math.pi, 0),
            *field_half)
    meta = {"protocol": "ising", "theta": th, "n_steps": n,
            "b_over_j": params.b_over_j, "j_sign": j_sign,
            "gates_per_step": len(step)}
    return Circuit(n_qubits=2, gates=step * n, metadata=meta)


def circuit_to_text(c: Circuit) -> str:
    """Line-oriented text form: one gate per line, metadata in # comments.

    Floats are written with repr so a dumped circuit reschedules to the
    byte-identical timeline.
    """
    lines = [f"# n_qubits={c.n_qubits}"]
    if c.metadata:
        parts = []
        for k in sorted(c.metadata):
            v = c.metadata[k]
            parts.append(f"{k}={repr(v) if isinstance(v, float) else v}")
        lines.append("# " + " ".join(parts))
    text: dict[int, str] = {}  # by gate id; a repeated gate is formatted once
    for g in c.gates:
        if id(g) not in text:
            if g.kind == "XY":
                text[id(g)] = f"XY theta={g.theta!r}"
            elif g.kind == "ROT":
                text[id(g)] = f"ROT axis={g.axis} angle={g.angle!r} q={g.qubit}"
            else:
                text[id(g)] = f"WAIT ns={g.duration_ns!r}"
        lines.append(text[id(g)])
    return "\n".join(lines) + "\n"


_META_INT_KEYS = {"n_qubits", "n_steps", "j_sign", "gates_per_step"}


def circuit_from_text(text: str) -> Circuit:
    """Parse the text form produced by circuit_to_text.

    Repeated gate lines share the one ``Gate`` built for the first of them, so
    a dumped Trotter circuit comes back with the repeated step it was built
    from and ``repeated_step`` compares its copies by identity.
    """
    n_qubits = 2
    metadata: dict = {}
    gates: list[Gate] = []
    built: dict[str, Gate] = {}  # a repeated gate line gets the Gate built for it
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if "=" not in token:
                    continue
                k, v = token.split("=", 1)
                if k == "n_qubits":
                    n_qubits = int(v)
                elif k in _META_INT_KEYS:
                    metadata[k] = int(v)
                elif k == "b_over_j":
                    metadata[k] = float(v)
                    if not math.isfinite(metadata[k]):
                        raise ValueError(f"b_over_j must be finite, got {v!r}")
                else:
                    try:
                        metadata[k] = float(v)
                    except ValueError:
                        metadata[k] = v
            continue
        if line not in built:
            fields = line.split()
            kind, kv = fields[0], dict(f.split("=", 1) for f in fields[1:])
            if kind == "XY":
                built[line] = Gate.xy(float(kv["theta"]))
            elif kind == "ROT":
                built[line] = Gate.rot(kv["axis"], float(kv["angle"]), int(kv["q"]))
            elif kind == "WAIT":
                built[line] = Gate.wait(float(kv["ns"]))
            else:
                raise ValueError(f"unknown gate line: {line!r}")
        gates.append(built[line])
    if metadata.get("j_sign", -1) not in (-1, 1):
        raise ValueError(f"j_sign must be +1 or -1, got {metadata['j_sign']}")
    if metadata.get("n_steps", 1) < 1:
        raise ValueError(f"n_steps must be >= 1, got {metadata['n_steps']}")
    return Circuit(n_qubits=n_qubits, gates=tuple(gates), metadata=metadata)
