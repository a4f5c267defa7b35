import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinsim.circuits import Circuit, EvolutionParams, Gate, circuit_from_text, \
    circuit_to_text, compile_heisenberg, compile_ising
from spinsim.noise import NoiseParams, gate_duration_ns
from spinsim.scheduler import (PulseEvent, PulseTimeline, TimingParams,
                               commensurate_padding, schedule, timeline_to_csv,
                               validate)

from conftest import compiled_circuit

GOLDEN = Path(__file__).parent / "golden"
NON_DEFAULT_TIMING = TimingParams(single_qubit_ns=30.0, buffer_ns=10.0,
                                  post_flux_wait_ns=60.0, detuning_mhz=250.0,
                                  theta_to_ns=0.5)


def timeline_footprints(tl, c, timing):
    """Per-gate sums of a timeline's event durations, plus the post-flux wait
    after a gate with a flux pulse; a WAIT gate keeps its stated duration."""
    sums = [0.0] * len(c.gates)
    has_flux = [False] * len(c.gates)
    for ev in tl.events:
        if ev.gate_index >= 0:
            sums[ev.gate_index] += ev.duration_ns
            has_flux[ev.gate_index] |= ev.channel.startswith("flux")
    return [g.duration_ns if g.kind == "WAIT"
            else total + (timing.post_flux_wait_ns if flux else 0.0)
            for g, total, flux in zip(c.gates, sums, has_flux)]


def xy_circuit(theta):
    return Circuit(2, (Gate.xy(theta),),
                   {"protocol": "xy", "theta": theta, "j_sign": -1})


class TestCommensuratePadding:
    def test_already_commensurate(self):
        assert commensurate_padding(100.0, 5.0) == 0.0

    def test_two_short(self):
        assert commensurate_padding(103.0, 5.0) == pytest.approx(2.0, abs=1e-9)

    def test_fractional(self):
        assert commensurate_padding(104.9, 5.0) == pytest.approx(0.1, abs=1e-9)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            commensurate_padding(-1.0, 5.0)
        with pytest.raises(ValueError):
            commensurate_padding(1.0, 0.0)


def test_phase_period_inverse_detuning():
    t = TimingParams()
    assert t.phase_period_ns == 5.0
    assert t.phase_period_ns * t.detuning_mhz == 1000.0


class TestPulseEvent:
    def test_contract(self):
        ev = PulseEvent("flux-Q1", 16.0, 6.5, "xy", 3)
        assert PulseEvent._fields == ("channel", "start_ns", "duration_ns", "label",
                                      "gate_index")
        assert ev == PulseEvent(channel="flux-Q1", start_ns=16.0, duration_ns=6.5,
                                label="xy", gate_index=3)
        assert PulseEvent("drive-Q1", 0.0, 24.0, "rot_x").gate_index == -1
        assert ev.end_ns == 22.5
        assert hash(ev) == hash(PulseEvent(*ev)) and len({ev, PulseEvent(*ev)}) == 1
        with pytest.raises(AttributeError):
            ev.start_ns = 0.0
        moved = ev._replace(start_ns=20.0)
        assert moved == PulseEvent("flux-Q1", 20.0, 6.5, "xy", 3)
        assert moved.end_ns == 26.5 and ev.start_ns == 16.0


class TestSchedule:
    def test_empty_circuit(self):
        tl = schedule(Circuit(2, ()), TimingParams())
        assert tl.events == ()
        assert tl.total_ns == 0.0

    def test_single_xy_footprint(self):
        # with the conversion pinned so the flux pulse lasts exactly 6.2 ns
        tl = schedule(xy_circuit(np.pi), TimingParams(theta_to_ns=6.2 / np.pi))
        labels = [(e.label, e.duration_ns) for e in tl.events]
        assert labels == [("buffer", 16.0), ("xy", 6.2), ("buffer", 16.0)]
        assert tl.total_ns == pytest.approx(78.2)

    def test_inter_xy_gaps_commensurate(self):
        tl = schedule(compile_ising(EvolutionParams(np.pi, 2, 3.0)), TimingParams())
        starts = sorted(e.start_ns for e in tl.events if e.label == "xy")
        assert len(starts) == 4
        for a, b in zip(starts, starts[1:]):
            r = (b - a) % 5.0
            assert min(r, 5.0 - r) < 1e-9

    def test_grid_validates_clean(self):
        timing = TimingParams()
        for theta in (np.pi / 4, np.pi / 2, np.pi, 3 * np.pi / 2):
            for n in range(1, 6):
                c = compile_ising(EvolutionParams(theta, n, 3.0))
                assert validate(schedule(c, timing), timing) == []
            for c in (compile_heisenberg(EvolutionParams(theta)), xy_circuit(theta)):
                assert validate(schedule(c, timing), timing) == []

    def test_deterministic_byte_for_byte(self):
        c = compile_ising(EvolutionParams(2.2, 3, 3.0))
        a = timeline_to_csv(schedule(c, TimingParams()))
        b = timeline_to_csv(schedule(c, TimingParams()))
        assert a == b

    def test_golden_timeline(self):
        c = compile_ising(EvolutionParams(np.pi / 2, 2, 3.0))
        csv = timeline_to_csv(schedule(c, TimingParams()))
        golden = (GOLDEN / "ising_theta_pi2_n2_timeline.csv").read_text()
        assert csv == golden

    def test_phase_gate_pairs_fire_together(self):
        tl = schedule(compile_ising(EvolutionParams(np.pi, 1, 3.0)), TimingParams())
        rz = sorted((e for e in tl.events if e.label == "rz"),
                    key=lambda e: (e.start_ns, e.channel))
        assert len(rz) == 4
        assert rz[0].start_ns == rz[1].start_ns
        assert {rz[0].channel, rz[1].channel} == {"flux-Q1", "flux-Q2"}


class TestValidate:
    def test_overlap_detected(self):
        events = (PulseEvent("drive-Q1", 0.0, 24.0, "rot_x", 0),
                  PulseEvent("drive-Q1", 10.0, 24.0, "rot_x", 1))
        tl = PulseTimeline(events, 34.0)
        msgs = validate(tl, TimingParams())
        assert any("overlap" in m for m in msgs)

    def test_commensurability_deficit_named(self):
        def unit(start, idx):
            return (PulseEvent("flux-Q1", start, 16.0, "buffer", idx),
                    PulseEvent("flux-Q1", start + 16.0, 6.0, "xy", idx),
                    PulseEvent("flux-Q1", start + 22.0, 16.0, "buffer", idx))
        events = unit(0.0, 0) + unit(103.0, 1)
        tl = PulseTimeline(events, 141.0)
        msgs = validate(tl, TimingParams())
        commens = [m for m in msgs if "commensurability" in m]
        assert len(commens) == 1
        assert "2 ns deficit" in commens[0]

    def test_missing_buffer_detected(self):
        events = (PulseEvent("flux-Q1", 0.0, 6.0, "xy", 0),)
        msgs = validate(PulseTimeline(events, 6.0), TimingParams())
        assert any("buffer" in m for m in msgs)

    def test_post_flux_wait_violation(self):
        events = (PulseEvent("flux-Q1", 0.0, 16.0, "buffer", 0),
                  PulseEvent("flux-Q1", 16.0, 6.0, "xy", 0),
                  PulseEvent("flux-Q1", 22.0, 16.0, "buffer", 0),
                  PulseEvent("drive-Q2", 48.0, 24.0, "rot_x", 1))
        msgs = validate(PulseTimeline(events, 72.0), TimingParams())
        assert any("post-flux wait" in m for m in msgs)


def test_timeline_and_per_gate_durations_agree():
    # the timeline's footprints equal the noise model's per-gate charge
    for timing in (TimingParams(), NON_DEFAULT_TIMING):
        params = NoiseParams(timing=timing)
        for theta, n in ((np.pi, 2), (2.5, 3)):
            c = compile_ising(EvolutionParams(theta, n, 3.0))
            tl = schedule(c, timing)
            footprints = timeline_footprints(tl, c, timing)
            per_gate = [gate_duration_ns(g, params, c.b_over_j) for g in c.gates]
            assert np.allclose(footprints, per_gate, atol=1e-9)


durations = st.floats(min_value=0.0, max_value=100.0)
timings = st.builds(TimingParams, single_qubit_ns=durations, buffer_ns=durations,
                    post_flux_wait_ns=durations,
                    detuning_mhz=st.floats(min_value=0.1, max_value=1000.0))


@settings(deadline=None)
@given(protocol=st.sampled_from(("xy", "heisenberg", "ising")),
       theta=st.floats(min_value=1e-6, max_value=4 * np.pi),
       n=st.integers(min_value=1, max_value=30),
       b_over_j=st.floats(min_value=-5.0, max_value=5.0),
       j_sign=st.sampled_from((-1, 1)), timing=timings)
def test_schedule_clean_and_footprints_match_charge(protocol, theta, n, b_over_j,
                                                    j_sign, timing):
    c = compiled_circuit(protocol, theta, n, b_over_j, j_sign)
    tl = schedule(c, timing)
    assert validate(tl, timing) == []
    params = NoiseParams(timing=timing)
    per_gate = [gate_duration_ns(g, params, c.b_over_j) for g in c.gates]
    assert np.allclose(timeline_footprints(tl, c, timing), per_gate, atol=1e-9)


# An angle so small that its flux pulse ends where it starts in floating
# point hits the same defect as theta = 0, so the property test starts at 1e-6.
@pytest.mark.xfail(strict=True, reason=(
    "known defect: a theta = 0 exchange gate emits a zero-length flux pulse "
    "that validate reports as an overlap with its own trailing buffer"))
@pytest.mark.parametrize("theta", [0.0, 1e-300])
@pytest.mark.parametrize("protocol", ["xy", "heisenberg", "ising"])
def test_theta_zero_schedules_clean(protocol, theta):
    timing = TimingParams()
    c = compiled_circuit(protocol, theta, 2, 3.0, -1)
    assert validate(schedule(c, timing), timing) == []


def test_ising_n1000_schedules_clean_and_commensurate():
    # 10,000 gates, too many for all-pairs scans to finish in a test run
    timing = TimingParams()
    c = compile_ising(EvolutionParams(np.pi / 2, 1000, 3.0))
    assert len(c.gates) == 10_000
    tl = schedule(c, timing)
    assert validate(tl, timing) == []
    starts = np.array([e.start_ns for e in tl.events if e.label == "xy"])
    # each start within tol/2 of a whole number of periods after the first,
    # so every pair of xy starts is commensurate within tol
    r = (starts - starts[0]) % timing.phase_period_ns
    assert np.minimum(r, timing.phase_period_ns - r).max() < 0.5e-9


# Equivalence with the all-pairs scheduler and validator.  The references
# below are the quadratic implementations the bisect-indexed ones replaced,
# spelled out; the indexed code must give the same floats, the same
# violations and the same message order.

_TOL = 1e-9
_FMT = "{:.12g}".format


def schedule_reference(circuit, timing):
    """``schedule`` with bump rescanning every flux-unit end until nothing moves."""
    period = timing.phase_period_ns
    wait = timing.post_flux_wait_ns
    ready = [0.0, 0.0]
    flux_unit_ends = []
    events = []
    last_xy_flux_start = None
    cursor_floor = 0.0

    def bump(t):
        changed = True
        while changed:
            changed = False
            for e in flux_unit_ends:
                if e - _TOL <= t < e + wait - _TOL:
                    t = e + wait
                    changed = True
        return t

    def place_rz(idx, g, t0):
        dur = timing.rz_flux_ns(g, circuit.metadata.get("b_over_j", 0.0))
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
            events.append(PulseEvent(f"drive-Q{g.qubit + 1}", t0,
                                     timing.single_qubit_ns, f"rot_{g.axis}", idx))
            ready[g.qubit] = t0 + timing.single_qubit_ns
        elif g.kind == "ROT":
            nxt = gates[idx + 1] if idx + 1 < len(gates) else None
            if (nxt is not None and nxt.kind == "ROT" and nxt.axis == "z"
                    and nxt.qubit != g.qubit):
                t0 = bump(max(ready[0], ready[1], cursor_floor))
                place_rz(idx, g, t0)
                place_rz(idx + 1, nxt, t0)
                idx += 2
                continue
            place_rz(idx, g, bump(max(ready[g.qubit], cursor_floor)))
        else:
            cursor_floor = max(max(ready), cursor_floor) + g.duration_ns
            ready = [max(r, cursor_floor) for r in ready]
        idx += 1

    total = max([cursor_floor, *ready] + [e + wait for e in flux_unit_ends]
                + [ev.end_ns for ev in events])
    if not events and cursor_floor == 0.0:
        total = 0.0
    events.sort(key=lambda ev: (ev.start_ns, ev.channel, ev.label))
    return PulseTimeline(tuple(events), total)


def flux_units_reference(timeline):
    units = []
    by_channel = {}
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


def validate_reference(timeline, timing):
    """``validate`` with every flux unit tested against every event."""
    violations = []
    period = timing.phase_period_ns
    wait = timing.post_flux_wait_ns
    by_channel = {}
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
    for start, end, kind in flux_units_reference(timeline):
        for ev in timeline.events:
            if end - _TOL <= ev.start_ns < end + wait - _TOL:
                if ev.start_ns >= start - _TOL and ev.end_ns <= end + _TOL:
                    continue
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


compiled_circuits = st.builds(
    compiled_circuit, protocol=st.sampled_from(("xy", "heisenberg", "ising")),
    theta=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=4 * np.pi)),
    n=st.integers(min_value=1, max_value=30),
    b_over_j=st.floats(min_value=-5.0, max_value=5.0),
    j_sign=st.sampled_from((-1, 1)))

# Hand-built sequences place rz units on one qubit before units already on the
# other, so flux-unit ends arrive out of time order.  Near-equal angles give
# paired rz pulses whose ends lie within tol of each other.
NEAR = (1.0, 1.0 - 5e-10, 1.0 + 5e-10)
angles = st.one_of(st.sampled_from(NEAR), st.floats(min_value=-2 * np.pi,
                                                     max_value=2 * np.pi))
gates = st.one_of(
    st.builds(Gate.rot, st.sampled_from("xyz"), angles, st.integers(0, 1)),
    st.builds(Gate.xy, st.floats(min_value=0.0, max_value=4 * np.pi)),
    st.builds(Gate.wait, st.one_of(st.sampled_from((1e-10, 5e-10)), durations)))
hand_built_circuits = st.builds(
    lambda gs, b: Circuit(2, tuple(gs), {} if b is None else {"b_over_j": b}),
    st.lists(gates, max_size=40),
    st.one_of(st.sampled_from((None, 0.5, -3.0)),
              st.floats(min_value=-5.0, max_value=5.0)))


@settings(deadline=None)
@given(circuit=st.one_of(compiled_circuits, hand_built_circuits), timing=timings)
def test_schedule_matches_rescan_reference(circuit, timing):
    ref = schedule_reference(circuit, timing)
    # an end at or beyond 2**23 ns, e.g. from a tiny b_over_j: long rz pulses
    if not math.ulp(ref.total_ns) <= _TOL:
        with pytest.raises(ValueError, match="overflow"):
            schedule(circuit, timing)
        return
    tl = schedule(circuit, timing)
    assert timeline_to_csv(tl) == timeline_to_csv(ref)
    assert tl == ref  # every float, total_ns included


def thetas_around(protocol, end_ns, timing):
    """Two neighbouring floats theta whose reference timelines (ising: n = 3,
    B/J = 3) end before end_ns and at or after it, found by bisection."""
    def end(theta):
        return schedule_reference(compiled_circuit(protocol, theta, 3, 3.0, -1),
                                  timing).total_ns
    lo, hi = 0.0, end_ns / timing.theta_to_ns  # one xy pulse alone lasts end_ns
    while lo < (mid := (lo + hi) / 2) < hi:
        lo, hi = (mid, hi) if end(mid) < end_ns else (lo, mid)
    return lo, hi


@pytest.mark.parametrize("timing", [TimingParams(), NON_DEFAULT_TIMING],
                         ids=["default", "non-default"])
@pytest.mark.parametrize("protocol", ["xy", "heisenberg", "ising"])
def test_timeline_ends_from_2_23_ns_are_refused(protocol, timing):
    """From 2**23 ns (8.4 ms) on, one ulp of a time exceeds _TOL, so the
    timing checks cannot resolve the timeline (ising circuits fail the
    commensurability check from about 2**24 ns).  Ends just below validate
    clean."""
    lo, hi = thetas_around(protocol, 2.0 ** 23, timing)
    for theta in [lo * (1 - k * 1e-5) for k in range(20)]:
        tl = schedule(compiled_circuit(protocol, theta, 3, 3.0, -1), timing)
        assert 2.0 ** 22 < tl.total_ns < 2.0 ** 23
        assert validate(tl, timing) == []
    with pytest.raises(ValueError, match="overflow"):
        schedule(compiled_circuit(protocol, hi, 3, 3.0, -1), timing)


# A paired rz pulse on Q1 and Q2 with angles a1 and a2 (pulse lengths in ns
# here), then a rot_x on Q1, which starts inside the Q1 unit's post-flux window.
@pytest.mark.parametrize("a1, a2, rot_start", [
    # The Q2 end (24 ns) lies within tol after the Q1 end and was placed
    # first.  The rescan jumps past it to 64 ns, and the Q1 window then no
    # longer holds t; taking the ends in time order would give 64 - 5e-10 ns.
    (24.0 - 5e-10, 24.0, 64.0),
    # Past the Q1 end to 50 ns, which the Q2 window (40, 80) holds: on to 80.
    (10.0, 40.0, 80.0),
])
def test_bump_matches_rescan(a1, a2, rot_start):
    timing = TimingParams(theta_to_ns=1.0)
    c = Circuit(2, (Gate.rot("z", a2, 1), Gate.rot("z", a1, 0), Gate.rot("x", 1.0, 0)),
                {"b_over_j": 2.0})
    tl = schedule(c, timing)
    assert tl == schedule_reference(c, timing)
    assert [e.start_ns for e in tl.events if e.label == "rot_x"] == [rot_start]


@pytest.mark.parametrize("reparse", [False, True], ids=["compiled", "parsed"])
def test_long_ising_matches_references(reparse):
    # 500 gates; the parsed copy shares one Gate object per distinct line
    timing = TimingParams()
    c = compile_ising(EvolutionParams(np.pi / 2, 50, 3.0))
    if reparse:
        c = circuit_from_text(circuit_to_text(c))
    tl = schedule(c, timing)
    assert tl == schedule_reference(c, timing)
    assert validate(tl, timing) == validate_reference(tl, timing) == []
    # every 37th event 3 ns late: all four kinds of violation
    late = PulseTimeline(tuple(ev._replace(start_ns=ev.start_ns + 3.0) if i % 37 == 0
                               else ev for i, ev in enumerate(tl.events)), tl.total_ns)
    msgs = validate(late, timing)
    assert msgs and msgs == validate_reference(late, timing)


def test_csv_ignores_event_order():
    tl = schedule(compile_ising(EvolutionParams(np.pi / 2, 50, 3.0)), TimingParams())
    shuffled = list(tl.events)
    random.Random(0).shuffle(shuffled)
    assert shuffled != list(tl.events)
    assert (timeline_to_csv(PulseTimeline(tuple(shuffled), tl.total_ns))
            == timeline_to_csv(tl))


@pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1 / 3,
                               123456789012.5, 1e16, -1e-5, math.inf, -math.inf,
                               math.nan])
def test_csv_numbers_keep_12_significant_digits(x):
    tl = PulseTimeline((PulseEvent("drive-Q1", x, x, "rot_x"),), 0.0)
    assert timeline_to_csv(tl).splitlines()[1] == f"drive-Q1,{x:.12g},{x:.12g},rot_x"


def test_post_flux_violations_in_timeline_order():
    # both drive pulses start inside the wait after the unit ending at 38 ns;
    # they are reported in tuple order, not start order
    events = (PulseEvent("flux-Q1", 0.0, 16.0, "buffer", 0),
              PulseEvent("flux-Q1", 16.0, 6.0, "xy", 0),
              PulseEvent("flux-Q1", 22.0, 16.0, "buffer", 0),
              PulseEvent("drive-Q2", 50.0, 24.0, "rot_x", 2),
              PulseEvent("drive-Q1", 45.0, 24.0, "rot_x", 1))
    tl = PulseTimeline(events, 74.0)
    msgs = validate(tl, TimingParams())
    assert msgs == validate_reference(tl, TimingParams())
    assert [m.split(" starts ")[0] for m in msgs] == [
        "post-flux wait violated: rot_x on drive-Q2",
        "post-flux wait violated: rot_x on drive-Q1"]


SHIFTS = st.one_of(st.sampled_from((-3.0, 0.5, 1e-10, -1e-10)),
                   st.floats(min_value=-60.0, max_value=60.0))
CHANNELS = ("flux-Q1", "flux-Q2", "drive-Q1", "drive-Q2")


@st.composite
def perturbed_timelines(draw):
    """A scheduled timeline with events shifted, dropped, duplicated, moved
    to another channel, and the event tuple shuffled."""
    timing = draw(timings)
    tl = schedule(draw(compiled_circuits), timing)
    evs = list(tl.events)
    for _ in range(draw(st.integers(0, 12))):
        if not evs:
            break
        i = draw(st.integers(0, len(evs) - 1))
        op = draw(st.sampled_from(("shift", "drop", "duplicate", "move")))
        if op == "shift":
            evs[i] = evs[i]._replace(start_ns=evs[i].start_ns + draw(SHIFTS))
        elif op == "drop":
            del evs[i]
        elif op == "duplicate":
            evs.insert(draw(st.integers(0, len(evs))), evs[i])
        else:
            evs[i] = evs[i]._replace(channel=draw(st.sampled_from(CHANNELS)))
    if draw(st.booleans()):
        evs = draw(st.permutations(evs))
    return PulseTimeline(tuple(evs), tl.total_ns), timing


@settings(deadline=None)
@given(case=perturbed_timelines())
def test_validate_matches_all_pairs_reference(case):
    timeline, timing = case
    assert validate(timeline, timing) == validate_reference(timeline, timing)
