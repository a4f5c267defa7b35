from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinsim.circuits import Circuit, EvolutionParams, Gate, compile_heisenberg, \
    compile_ising
from spinsim.noise import NoiseParams, gate_duration_ns, simulate_noisy
from spinsim.scheduler import (PulseEvent, PulseTimeline, TimingParams,
                               commensurate_padding, gate_footprint_durations,
                               schedule, timeline_to_csv, validate)
from spinsim.tomography import state_fidelity
from spinsim.circuits import circuit_unitary

from conftest import FIG3, compiled_circuit

GOLDEN = Path(__file__).parent / "golden"
NON_DEFAULT_TIMING = TimingParams(single_qubit_ns=30.0, buffer_ns=10.0,
                                  post_flux_wait_ns=60.0, detuning_mhz=250.0,
                                  theta_to_ns=0.5)


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
    # the two duration accountings drive the noise model identically
    rho0 = np.outer(FIG3, FIG3.conj())
    for timing in (TimingParams(), NON_DEFAULT_TIMING):
        params = NoiseParams(timing=timing)
        for theta, n in ((np.pi, 2), (2.5, 3)):
            c = compile_ising(EvolutionParams(theta, n, 3.0))
            tl = schedule(c, timing)
            footprints = gate_footprint_durations(tl, c, timing)
            per_gate = [gate_duration_ns(g, params, c.metadata) for g in c.gates]
            assert np.allclose(footprints, per_gate, atol=1e-9)
            psi = circuit_unitary(c) @ FIG3
            f1 = state_fidelity(simulate_noisy(c, params, rho0), psi)
            f2 = state_fidelity(
                simulate_noisy(c, params, rho0, durations_ns=footprints), psi)
            assert abs(f1 - f2) < 1e-9


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
    per_gate = [gate_duration_ns(g, params, c.metadata) for g in c.gates]
    assert np.allclose(gate_footprint_durations(tl, c, timing), per_gate, atol=1e-9)


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
