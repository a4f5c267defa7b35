"""Lower a circuit to a hardware-style pulse timeline.

Timing rules enforced here and checked by ``validate``:

* events on one channel never overlap;
* every exchange-gate flux pulse is wrapped in two fixed-length buffer
  segments on the flux channel;
* after every flux unit (buffers included) no event may start for the
  post-flux wait;
* consecutive exchange flux pulses start an integer number of relative-phase
  periods apart, via the commensuration padding.

All durations come from ``device.TimingParams``, the timing model the noise
engine charges decoherence with.  Refocusing pi pulses are not inserted here:
the compiled Ising sequence already carries them as gates.  Like ``ir`` and
``device``, this module is plain Python, so scheduling never loads numpy.

``schedule`` and ``validate`` each cost O(E log E) in the event count E: flux
unit ends, buffers and event starts are kept sorted and searched with
``bisect``, so no check compares all pairs of events.  The fixed cost per
event is kept small: a ``PulseEvent`` is a ``NamedTuple``, about a third of
the cost of a frozen dataclass to build, events sort on C-level
``attrgetter`` keys, and ``validate`` finds each xy pulse's buffers once.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .device import TimingParams
from .ir import Circuit, Gate

_TOL = 1e-9
_FMT = "{:.12g}".format
_START = attrgetter("start_ns")
_ORDER = attrgetter("start_ns", "channel", "label")  # timeline order
_FLUX, _DRIVE = ("flux-Q1", "flux-Q2"), ("drive-Q1", "drive-Q2")  # by qubit


class PulseEvent(NamedTuple):
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
    """Greedy earliest-start assignment in gate order.

    Raises ValueError for a circuit whose timeline ends where one ulp of a
    time exceeds the 1e-9 ns tolerance (at 2**23 ns, about 8.4 ms, or later),
    so that the timing checks could no longer resolve it; the float range's
    overflow is a case of this.
    """
    period = timing.phase_period_ns
    wait = timing.post_flux_wait_ns
    ready = [0.0, 0.0]
    ends: list[tuple[float, int]] = []  # (flux unit end, placement order), sorted
    opens: list[float] = []  # end - tol of each entry of ends
    closes: list[float] = []  # end + wait - tol of each entry of ends
    events: list[PulseEvent] = []
    last_xy_flux_start: float | None = None
    cursor_floor = 0.0

    def bump(t: float) -> float:
        # No event may start in [end - tol, end + wait - tol) of a flux unit.
        # Jump past the ends whose window holds t in the order a rescan of all
        # ends in placement order takes them, so t is the same float.
        last = -1
        while True:
            hits = ends[bisect_right(closes, t):bisect_right(opens, t)]
            if not hits:
                return t
            e, last = (hits[0] if len(hits) == 1
                       else min(hits, key=lambda u: (u[1] <= last, u[1])))
            t = e + wait

    def add_unit_end(e: float) -> None:
        i = bisect_right(ends, (e, len(ends)))
        ends.insert(i, (e, len(ends)))
        opens.insert(i, e - _TOL)
        closes.insert(i, e + wait - _TOL)

    def place_rz(idx: int, g: Gate, t0: float) -> None:
        dur = timing.rz_flux_ns(g, circuit.b_over_j)
        events.append(PulseEvent(_FLUX[g.qubit], t0, dur, "rz", idx))
        add_unit_end(t0 + dur)
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
            add_unit_end(unit_end)
            last_xy_flux_start = flux_start
            ready[0] = ready[1] = unit_end
        elif g.kind == "ROT" and g.axis in ("x", "y"):
            t0 = bump(max(ready[g.qubit], cursor_floor))
            dur = timing.single_qubit_ns
            events.append(PulseEvent(_DRIVE[g.qubit], t0, dur, "rot_" + g.axis, idx))
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

    total = max([cursor_floor, *ready] + [e + wait for e, _ in ends]
                + [start + dur for _, start, dur, _, _ in events])
    if not math.ulp(total) <= _TOL:  # total >= 2**23 ns; inf and NaN fail too
        raise ValueError(f"pulse times overflow: the timeline ends at {total} ns, not below 2**23")

    events.sort(key=_ORDER)
    return PulseTimeline(tuple(events), total)


def _near(keyed: tuple[list[float], list], x: float) -> list:
    """The items of ``keyed`` = (sorted keys, items) whose key is within _TOL of x.

    The bisect takes a 2 * _TOL window, which holds every key that passes the
    exact test |key - x| < _TOL whatever the rounding of that difference.
    """
    keys, items = keyed
    lo, hi = bisect_left(keys, x - 2 * _TOL), bisect_right(keys, x + 2 * _TOL)
    return [it for k, it in zip(keys[lo:hi], items[lo:hi]) if abs(k - x) < _TOL]


def _buffer_index(evs: list[PulseEvent]):
    """One channel's buffers keyed by start and, with their start rank, by end.

    ``evs`` are the channel's events sorted by start.
    """
    by_start = [b for b in evs if b.label == "buffer"]
    ends = [b.end_ns for b in by_start]
    ranks = sorted(range(len(ends)), key=ends.__getitem__)
    return (([b.start_ns for b in by_start], by_start),
            ([ends[r] for r in ranks], [(r, by_start[r]) for r in ranks]))


def _lead_trail(index, ev: PulseEvent) -> tuple[PulseEvent | None, PulseEvent | None]:
    """The first buffers, in start order, that end where ``ev`` starts and that
    start where it ends; None where there is none."""
    lead, trail = _near(index[1], ev.start_ns), _near(index[0], ev.end_ns)
    return (min(lead)[1] if lead else None), (trail[0] if trail else None)


def _flux_units(by_channel: dict[str, list[PulseEvent]],
                lead_trail: dict) -> list[tuple[float, float, str]]:
    """(start, end, kind) of each flux unit; buffers belong to their xy unit.

    ``lead_trail`` maps each xy pulse's id to its ``_lead_trail``.
    """
    units = []
    for channel, evs in by_channel.items():
        if not channel.startswith("flux"):
            continue
        for ev in evs:
            if ev.label == "rz":
                units.append((ev.start_ns, ev.end_ns, "rz"))
            elif ev.label == "xy":
                lead, trail = lead_trail[id(ev)]
                start = lead.start_ns if lead else ev.start_ns
                end = trail.end_ns if trail else ev.end_ns
                units.append((start, end, "xy"))
    return units


def validate(timeline: PulseTimeline, timing: TimingParams) -> list[str]:
    """Check all timeline invariants; returns one message per violation."""
    violations: list[str] = []
    period = timing.phase_period_ns
    wait = timing.post_flux_wait_ns
    events = timeline.events

    by_channel: dict[str, list[PulseEvent]] = {}
    for ev in events:
        by_channel.setdefault(ev.channel, []).append(ev)
    for channel, evs in by_channel.items():
        evs.sort(key=_START)
        for a, b in zip(evs, evs[1:]):
            if b.start_ns < a.end_ns - _TOL:
                violations.append(
                    f"overlap on {channel}: {a.label} at {_FMT(a.start_ns)} ns "
                    f"and {b.label} at {_FMT(b.start_ns)} ns")
    buffers = {channel: _buffer_index(evs) for channel, evs in by_channel.items()}

    flux_evs = sorted((ev for ev in events if ev.label == "xy"), key=_START)
    lead_trail = {}  # by event id; the timeline keeps its events alive
    for ev in flux_evs:
        lead_trail[id(ev)] = found = _lead_trail(buffers[ev.channel], ev)
        if not all(found):
            violations.append(
                f"xy flux pulse at {_FMT(ev.start_ns)} ns on {ev.channel} "
                f"lacks its {timing.buffer_ns:g} ns buffers")

    order = sorted(range(len(events)), key=[ev.start_ns for ev in events].__getitem__)
    starts = [events[i].start_ns for i in order]
    for start, end, kind in _flux_units(by_channel, lead_trail):
        # events starting in [end - tol, end + wait - tol), in timeline order
        window = order[bisect_left(starts, end - _TOL):
                       bisect_left(starts, end + wait - _TOL)]
        for ev in map(events.__getitem__, sorted(window)):
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
    rows += ["%s,%.12g,%.12g,%s" % ev[:4] for ev in sorted(timeline.events, key=_ORDER)]
    return "\n".join(rows) + "\n"
