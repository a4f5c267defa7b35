"""Lower a circuit to a hardware-style pulse timeline.

Timing rules enforced here and checked by ``validate``:

* events on one channel never overlap;
* every exchange-gate flux pulse is wrapped in two fixed-length buffer
  segments on the flux channel;
* after every flux unit (buffers included) no event may start for the
  post-flux wait;
* consecutive exchange flux pulses start an integer number of relative-phase
  periods apart, via the commensuration padding.

All durations come from ``TimingParams``, the timing model the noise engine
charges decoherence with.  Refocusing pi pulses are not inserted here: the
compiled Ising sequence already carries them as gates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import Circuit, Gate
from .noise import TimingParams

_TOL = 1e-9
_FMT = "{:.12g}".format


@dataclass(frozen=True)
class PulseEvent:
    channel: str
    start_ns: float
    duration_ns: float
    label: str
    gate_index: int = -1

    @property
    def end_ns(self) -> float:
        return self.start_ns + self.duration_ns


@dataclass(frozen=True)
class PulseTimeline:
    events: tuple[PulseEvent, ...]
    total_ns: float


def commensurate_padding(elapsed_ns: float, period_ns: float) -> float:
    """Smallest pad >= 0 making elapsed + pad a multiple of the period."""
    if elapsed_ns < 0:
        raise ValueError("elapsed time must be non-negative")
    if period_ns <= 0:
        raise ValueError("period must be positive")
    r = elapsed_ns % period_ns
    if r < _TOL or period_ns - r < _TOL:
        return 0.0
    return period_ns - r


def schedule(circuit: Circuit, timing: TimingParams) -> PulseTimeline:
    """Greedy earliest-start assignment in gate order."""
    n = circuit.n_qubits
    if n != 2:
        raise ValueError("the scheduler handles two-qubit circuits")
    period = timing.phase_period_ns
    wait = timing.post_flux_wait_ns
    ready = [0.0] * n
    flux_unit_ends: list[float] = []
    events: list[PulseEvent] = []
    last_xy_flux_start: float | None = None
    cursor_floor = 0.0

    def bump(t: float) -> float:
        # events may not start inside (unit_end, unit_end + wait)
        changed = True
        while changed:
            changed = False
            for e in flux_unit_ends:
                if e - _TOL <= t < e + wait - _TOL:
                    t = e + wait
                    changed = True
        return t

    def place_rz(idx: int, g: Gate, t0: float) -> None:
        dur = timing.rz_flux_ns(g, circuit.metadata)
        events.append(PulseEvent(f"flux-Q{g.qubit + 1}", t0, dur, "rz", idx))
        flux_unit_ends.append(t0 + dur)
        ready[g.qubit] = t0 + dur

    idx = 0
    gates = circuit.gates
    while idx < len(gates):
        g = gates[idx]
        if g.kind == "XY":
            t0 = bump(max(ready[0], ready[1], cursor_floor))
            flux_start = t0 + timing.buffer_ns
            if last_xy_flux_start is not None:
                pad = commensurate_padding(flux_start - last_xy_flux_start, period)
                t0 += pad
                flux_start += pad
            dur = timing.theta_to_ns * g.theta
            events.append(PulseEvent("flux-Q1", t0, timing.buffer_ns, "buffer", idx))
            events.append(PulseEvent("flux-Q1", flux_start, dur, "xy", idx))
            events.append(PulseEvent("flux-Q1", flux_start + dur,
                                     timing.buffer_ns, "buffer", idx))
            unit_end = flux_start + dur + timing.buffer_ns
            flux_unit_ends.append(unit_end)
            last_xy_flux_start = flux_start
            ready[0] = ready[1] = unit_end
        elif g.kind == "ROT" and g.axis in ("x", "y"):
            t0 = bump(max(ready[g.qubit], cursor_floor))
            dur = timing.single_qubit_ns
            events.append(PulseEvent(f"drive-Q{g.qubit + 1}", t0, dur,
                                     f"rot_{g.axis}", idx))
            ready[g.qubit] = t0 + dur
        elif g.kind == "ROT":
            # consecutive z-phase gates on the two qubits fire simultaneously,
            # like the hardware's paired phase flux pulses
            nxt = gates[idx + 1] if idx + 1 < len(gates) else None
            if (nxt is not None and nxt.kind == "ROT" and nxt.axis == "z"
                    and nxt.qubit != g.qubit):
                t0 = bump(max(ready[0], ready[1], cursor_floor))
                place_rz(idx, g, t0)
                place_rz(idx + 1, nxt, t0)
                idx += 2
                continue
            t0 = bump(max(ready[g.qubit], cursor_floor))
            place_rz(idx, g, t0)
        else:  # WAIT
            base = max(max(ready), cursor_floor)
            cursor_floor = base + g.duration_ns
            ready = [max(r, cursor_floor) for r in ready]
        idx += 1

    total = max(
        [cursor_floor, *ready] + [e + wait for e in flux_unit_ends]
        + [ev.end_ns for ev in events],
        default=0.0,
    )
    if not events and cursor_floor == 0.0:
        total = 0.0

    events.sort(key=lambda ev: (ev.start_ns, ev.channel, ev.label))
    return PulseTimeline(tuple(events), total)


def _flux_units(timeline: PulseTimeline) -> list[tuple[float, float, str]]:
    """(start, end, kind) of each flux unit; buffers belong to their xy unit."""
    units = []
    by_channel: dict[str, list[PulseEvent]] = {}
    for ev in timeline.events:
        by_channel.setdefault(ev.channel, []).append(ev)
    for channel, evs in by_channel.items():
        if not channel.startswith("flux"):
            continue
        evs = sorted(evs, key=lambda e: e.start_ns)
        for ev in evs:
            if ev.label == "rz":
                units.append((ev.start_ns, ev.end_ns, "rz"))
            elif ev.label == "xy":
                lead = [b for b in evs if b.label == "buffer"
                        and abs(b.end_ns - ev.start_ns) < _TOL]
                trail = [b for b in evs if b.label == "buffer"
                         and abs(b.start_ns - ev.end_ns) < _TOL]
                start = lead[0].start_ns if lead else ev.start_ns
                end = trail[0].end_ns if trail else ev.end_ns
                units.append((start, end, "xy"))
    return units


def validate(timeline: PulseTimeline, timing: TimingParams) -> list[str]:
    """Check all timeline invariants; returns one message per violation."""
    violations: list[str] = []
    period = timing.phase_period_ns
    wait = timing.post_flux_wait_ns

    by_channel: dict[str, list[PulseEvent]] = {}
    for ev in timeline.events:
        by_channel.setdefault(ev.channel, []).append(ev)
    for channel, evs in by_channel.items():
        evs = sorted(evs, key=lambda e: e.start_ns)
        for a, b in zip(evs, evs[1:]):
            if b.start_ns < a.end_ns - _TOL:
                violations.append(
                    f"overlap on {channel}: {a.label} at {_FMT(a.start_ns)} ns "
                    f"and {b.label} at {_FMT(b.start_ns)} ns")

    flux_evs = sorted((ev for ev in timeline.events if ev.label == "xy"),
                      key=lambda e: e.start_ns)
    for ev in flux_evs:
        same = by_channel.get(ev.channel, [])
        has_lead = any(b.label == "buffer" and abs(b.end_ns - ev.start_ns) < _TOL
                       for b in same)
        has_trail = any(b.label == "buffer" and abs(b.start_ns - ev.end_ns) < _TOL
                        for b in same)
        if not (has_lead and has_trail):
            violations.append(
                f"xy flux pulse at {_FMT(ev.start_ns)} ns on {ev.channel} "
                f"lacks its {timing.buffer_ns:g} ns buffers")

    units = _flux_units(timeline)
    for start, end, kind in units:
        for ev in timeline.events:
            if end - _TOL <= ev.start_ns < end + wait - _TOL:
                if ev.start_ns >= start - _TOL and ev.end_ns <= end + _TOL:
                    continue  # member of this unit
                violations.append(
                    f"post-flux wait violated: {ev.label} on {ev.channel} starts "
                    f"{_FMT(ev.start_ns - end)} ns after the {kind} unit ending "
                    f"at {_FMT(end)} ns (need >= {wait:g} ns)")

    for a, b in zip(flux_evs, flux_evs[1:]):
        gap = b.start_ns - a.start_ns
        r = gap % period
        if r > _TOL and period - r > _TOL:
            violations.append(
                f"commensurability violated: {_FMT(gap)} ns between XY pulses at "
                f"{_FMT(a.start_ns)} and {_FMT(b.start_ns)} ns, "
                f"{_FMT(period - r)} ns deficit")

    return violations


def timeline_to_csv(timeline: PulseTimeline) -> str:
    """CSV form, sorted by start then channel; byte-stable for golden tests."""
    rows = ["channel,start_ns,duration_ns,label"]
    for ev in sorted(timeline.events,
                     key=lambda e: (e.start_ns, e.channel, e.label)):
        rows.append(
            f"{ev.channel},{_FMT(ev.start_ns)},{_FMT(ev.duration_ns)},{ev.label}")
    return "\n".join(rows) + "\n"


def gate_footprint_durations(timeline: PulseTimeline, circuit: Circuit,
                             timing: TimingParams) -> list[float]:
    """Per-gate wall-clock footprints extracted from a scheduled timeline.

    A gate's footprint is the sum of its event durations plus the post-flux
    wait when its events include a flux pulse; WAIT gates keep their stated
    duration.  Matches the per-gate accounting used by the noise engine.
    """
    sums = [0.0] * len(circuit.gates)
    has_flux = [False] * len(circuit.gates)
    for ev in timeline.events:
        if ev.gate_index < 0:
            continue
        sums[ev.gate_index] += ev.duration_ns
        if ev.channel.startswith("flux"):
            has_flux[ev.gate_index] = True
    out = []
    for idx, g in enumerate(circuit.gates):
        if g.kind == "WAIT":
            out.append(g.duration_ns)
        else:
            out.append(sums[idx] + (timing.post_flux_wait_ns if has_flux[idx] else 0.0))
    return out
