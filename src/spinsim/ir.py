"""Gate set, circuit IR, the digital decompositions of the spin models and
the circuit text format, in plain Python.

Nothing here imports numpy, so lowering a circuit to a pulse timeline
(``spinsim schedule``) never loads it; the gate matrices and the propagation
engine live in ``circuits``.  Every circuit acts on the two-qubit register;
``Circuit`` rejects any other size.  ``compile_xy``, ``compile_heisenberg`` and
``compile_ising`` are the one definition of each protocol's gate sequence.

``XY(theta)`` is the exchange gate at quantum phase angle theta = 2|J|tau and
``ROT(a, phi, q)`` = exp(-i phi sigma_a / 2) on qubit q in {0, 1};
``circuits`` pins their matrices.  A ``Gate`` is a checked namedtuple, so
the gate caches hash and compare it in C.  The compilers build one object per
distinct gate and repeat it, within a step and across steps, as the text
parser does for repeated lines; ``circuits.circuit_matrix`` resolves each
object once per call.

The Heisenberg compilation conjugates the exchange gate into the XZ and YZ
bases with x/y rotations by +-pi/2; the basis-change signs are fixed here so
that each block equals the corresponding two-axis exponential exactly.  The
transverse-field Ising compilation uses a symmetric split: half-angle field
rotations flank the spin-echo XX block in every step.  The local error of one
step is O((theta/n)^3), so the global error amplitude after n steps is
O(1/n^2) and the state infidelity, its square, is O(1/n^4).  Each step also
carries the two consecutive refocusing pi pulses on qubit Q2 (a net
identity) so that noisy simulations see the same pulse load as the hardware
sequence.  A circuit stores its gates once, as ``step`` = (step, n):
``compile_ising`` builds one Trotter step and hands it over with n, so
compiling costs O(|step|) at any n, and ``gates`` is ``step * n``, derived on
each read.  ``Circuit`` checks and freezes its header once; given a flat gate
sequence, it finds the step for any circuit whose gates are exactly
``n_steps`` copies of one.  ``MAX_STEPS`` bounds n: from n ~ 1e5 on, the
rounding of the step's matrix power (about n * eps) outgrows the Trotter
error, and at ``MAX_STEPS`` it is still below 1e-8.
``Circuit`` is the one reader of the header: the other modules read its
typed fields ``j_sign`` and ``b_over_j``.  The header carries no z angle: a
step's z rotation is what its own Q2 phase gates carry, and the noise model
reads it from them.

The text form writes one gate per line: the step's lines, n times.
``_GATE_TEXT`` lists each kind's values once, for both the writer and the
parser.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from types import MappingProxyType

HALF_PI = math.pi / 2.0
MAX_STEPS = 10 ** 7  # the largest Trotter step count a circuit is compiled with


class _Record(tuple):
    """The base of the package's checked records, listed after their
    ``namedtuple`` class: ``class R(namedtuple("R", ...), _Record)``.

    The namedtuple's ``__new__`` keeps each constructor's signature (names,
    order and defaults).  This class runs the record's ``_check`` after it,
    and on every other way of building one: ``_make`` (so ``_replace``),
    unpickling and ``copy``.  A record is a tuple: it equals the plain tuple
    of its fields, and hashing and ``==`` run in C.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # the namedtuple's own _make, which _replace calls, skips __init__
        cls._make = classmethod(lambda c, fields: c(*fields))

    def __init__(self, *fields, **named):
        self._check()

    def __reduce__(self):
        return type(self), tuple(self)


class Gate(namedtuple("Gate", "kind theta axis angle qubit duration_ns",
                      defaults=(0.0, "", 0.0, 0, 0.0)), _Record):
    """One gate event: kind is "XY", "ROT" or "WAIT".

    ``theta`` is the XY quantum phase angle 2|J|tau (>= 0); ``axis`` ("x",
    "y" or "z"), ``angle`` (radians) and ``qubit`` (0 or 1) describe a ROT;
    ``duration_ns`` is a WAIT's idle time.  A checked record, so the gate
    caches hash and compare it in C.
    """

    __slots__ = ()

    def _check(self):
        kind, theta, axis, angle, qubit, duration_ns = self
        if not (math.isfinite(theta) and math.isfinite(angle)
                and math.isfinite(duration_ns)):
            raise ValueError("gate angles and durations must be finite")
        if kind == "XY":
            if theta < 0:
                raise ValueError("XY phase angle must be non-negative")
        elif kind == "ROT":
            if axis not in ("x", "y", "z"):
                raise ValueError(f"unknown rotation axis {axis!r}")
            if qubit not in (0, 1):
                raise ValueError("qubit index must be non-negative" if qubit < 0
                                 else f"gate targets qubit {qubit} of 2")
        elif kind == "WAIT":
            if duration_ns < 0:
                raise ValueError("wait duration must be non-negative")
        else:
            raise ValueError(f"unknown gate kind {kind!r}")

    @classmethod
    def xy(cls, theta: float) -> "Gate":
        return cls("XY", theta)

    @classmethod
    def rot(cls, axis: str, angle: float, qubit: int) -> "Gate":
        return cls("ROT", 0.0, axis, angle, qubit)


class Circuit:
    """A gate sequence on the two-qubit register, with a read-only header.

    The header is read here and nowhere else.  Its physics keys are each
    optional and checked: ``j_sign`` in {-1, 1}, ``n_steps`` an integer >= 1
    that a float can hold, and ``b_over_j`` and ``theta`` finite numbers; no
    ``bool`` passes.  The other modules read the typed fields ``j_sign`` and
    ``b_over_j``.  ``step`` is the circuit as (step, n), the only form it
    stores; ``gates`` is the tuple ``step * n``, the step itself when n = 1
    and a new tuple on each read otherwise.  Given flat ``gates``, the step
    is found once: header ``n_steps`` is only a candidate for n, so a circuit
    whose gates are not that many copies of one step is its own step, with
    n = 1.  A step's z rotation is the sum of its own Q2 phase-gate angles;
    no header value restates it.  ``metadata`` stays the read-only header
    that the text dump writes.

    A slotted, read-only class: assigning or deleting an attribute raises
    ``AttributeError``.  Two circuits are equal when their ``n_qubits``,
    ``gates`` and ``metadata`` are; a circuit is not hashable and not a
    sequence.  Pickling and copying rebuild the circuit, checks included.
    """

    __slots__ = ("n_qubits", "step", "metadata", "j_sign", "b_over_j")

    def __init__(self, n_qubits: int, gates: tuple[Gate, ...],
                 metadata: MappingProxyType = MappingProxyType({})):  # or any mapping
        if not (isinstance(n_qubits, int) and n_qubits == 2):
            raise ValueError(f"circuits act on two qubits, got n_qubits={n_qubits!r}")
        gates = tuple(gates)
        meta = MappingProxyType(dict(metadata))
        j, n, b = meta.get("j_sign", -1), meta.get("n_steps", 1), meta.get("b_over_j", 0.0)
        big = sys.float_info.max
        if not (type(j) is int and j in (-1, 1)):
            raise ValueError(f"j_sign must be +1 or -1, got {j!r}")
        if not (type(n) is int and 1 <= n <= big):
            raise ValueError(f"n_steps must be an integer >= 1 that a float can hold, got {n!r}")
        for key, v in (("b_over_j", b), ("theta", meta.get("theta", 0.0))):
            # NaN fails the comparison; an int beyond the float range fails it too
            if isinstance(v, bool) or not (isinstance(v, (int, float)) and abs(v) <= big):
                raise ValueError(f"{key} must be finite, got {v!r}")
        k = len(gates) // n
        repeats = 1 < n <= len(gates) and k * n == len(gates) and gates[:k] * n == gates
        for name, value in (("n_qubits", n_qubits), ("metadata", meta), ("j_sign", j),
                            ("b_over_j", b), ("step", (gates[:k], n) if repeats else (gates, 1))):
            object.__setattr__(self, name, value)

    @classmethod
    def _repeat(cls, step: tuple[Gate, ...], metadata: dict) -> "Circuit":
        """The circuit of ``step`` repeated header ``n_steps`` times, built
        without the n-copy tuple; ``compile_ising``'s path."""
        c = cls(2, step, metadata)
        object.__setattr__(c, "step", (step, c.metadata["n_steps"]))
        return c

    @property
    def gates(self) -> tuple[Gate, ...]:
        return self.step[0] * self.step[1]  # the step itself when n = 1

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a read-only Circuit")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a read-only Circuit")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # equal gates and header mean an equal step, without the n-copy tuple
        return ((self.n_qubits, self.step, self.metadata)
                == (other.n_qubits, other.step, other.metadata))

    def __repr__(self):
        return (f"{type(self).__qualname__}(n_qubits={self.n_qubits!r}, "
                f"gates={self.gates!r}, metadata={self.metadata!r})")

    def __reduce__(self):
        return type(self), (self.n_qubits, self.gates, dict(self.metadata))


class EvolutionParams(namedtuple("EvolutionParams", "theta n_steps b_over_j",
                                 defaults=(1, 0.0)), _Record):
    """Total phase angle, Trotter step count (1 to ``MAX_STEPS``) and
    field-to-coupling ratio."""

    __slots__ = ()

    def _check(self):
        if not 1 <= self.n_steps <= MAX_STEPS:
            raise ValueError(f"n_steps must be in [1, {MAX_STEPS}]")


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
    xy = Gate.xy(th)
    gates: list[Gate] = [xy]
    for axis in ("x", "y"):
        gates += [
            Gate.rot(axis, -HALF_PI, 0),
            Gate.rot(axis, -HALF_PI, 1),
            xy,
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
    refocusing sequence; their net effect is the identity.  The circuit
    stores the step once, with n.
    """
    n = params.n_steps
    th = params.theta
    step_theta = th / n
    # Per-step z rotation angle is B*tau/n with B = j_sign*b_over_j in units
    # of |J| and tau = theta/2; each flanking gate carries half of it.
    phi_half = j_sign * params.b_over_j * th / (4.0 * n)
    field_half = ((Gate.rot("z", phi_half, 0), Gate.rot("z", phi_half, 1))
                  if phi_half != 0.0 else ())
    # one object per distinct gate, so each is looked up once per step
    xy, x0, x1 = Gate.xy(step_theta), Gate.rot("x", math.pi, 0), Gate.rot("x", math.pi, 1)
    step = (*field_half, xy, x0, x1, x1, xy, x0, *field_half)
    meta = {"protocol": "ising", "theta": th, "n_steps": n,
            "b_over_j": params.b_over_j, "j_sign": j_sign,
            "gates_per_step": len(step)}
    return Circuit._repeat(step, meta)


# each gate kind's values in its text line, in order: (text key, Gate field, parser)
_GATE_TEXT = {
    "XY": (("theta", "theta", float),),
    "ROT": (("axis", "axis", str), ("angle", "angle", float), ("q", "qubit", int)),
    "WAIT": (("ns", "duration_ns", float),),
}


def _text(value) -> str:
    """A header or gate value as text: a float by repr, so it reads back exactly."""
    return repr(value) if isinstance(value, float) else str(value)


def circuit_to_text(c: Circuit) -> str:
    """Line-oriented text form: one gate per line, metadata in # comments.

    Floats are written with repr so a dumped circuit reschedules to the
    byte-identical timeline.  The step's lines are formatted once and
    repeated n times.
    """
    lines = [f"# n_qubits={c.n_qubits}"]
    if c.metadata:
        lines.append("# " + " ".join(f"{k}={_text(c.metadata[k])}" for k in sorted(c.metadata)))
    step, n = c.step
    lines += [" ".join([g.kind, *(f"{key}={_text(getattr(g, name))}"
                                  for key, name, _ in _GATE_TEXT[g.kind])])
              for g in step] * n
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    """Parse the text form produced by circuit_to_text.

    A header value, ``n_qubits`` included, is an ``int`` where it reads as
    one, else a ``float`` where it reads as one, else the text; ``Circuit``
    checks them.  Repeated gate lines share the one ``Gate`` built for the
    first of them, so a dumped Trotter circuit comes back with the repeated
    step it was built from, and ``Circuit.step`` compares its copies by
    identity.  A gate line must give each of its kind's fields once and no
    other field.
    """
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
                for parse in (int, float, str):  # str keeps any other text
                    try:
                        metadata[k] = parse(v)
                        break
                    except ValueError:
                        pass
            continue
        if line not in built:
            kind, *fields = line.split()
            kv = dict(f.split("=", 1) for f in fields)
            if kind not in _GATE_TEXT:
                raise ValueError(f"unknown gate line: {line!r}")
            # exactly the kind's fields, each given once
            if len(kv) != len(fields) or sorted(kv) != sorted(k for k, _, _ in _GATE_TEXT[kind]):
                raise ValueError(f"bad fields in gate line: {line!r}")
            built[line] = Gate(kind, **{name: parse(kv[key])
                                        for key, name, parse in _GATE_TEXT[kind]})
        gates.append(built[line])
    return Circuit(n_qubits=metadata.pop("n_qubits", 2), gates=tuple(gates),
                   metadata=metadata)
