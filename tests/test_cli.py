import contextlib
import io
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import spinsim.cli
import spinsim.noise
from conftest import FIG3, complex_arrays
from spinsim.circuits import EvolutionParams, circuit_unitary, compile_ising
from spinsim.cli import PROTOCOLS, ConfigError, RunConfig, build_circuit, load_config, main
from spinsim.hamiltonians import (dominant_angular_frequency, exact_evolve,
                                  oracle_hamiltonian)
from spinsim.ir import MAX_STEPS
from spinsim.noise import NoiseParams, simulate_noisy
from spinsim.tomography import negativity, process_tomography, state_fidelity
from test_api import run_fresh
from test_tomography import json_reference


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, (float(x) for x in line.split(","))))
            for line in lines[1:]]
    return header, rows


def text_rows(path: Path) -> list[dict]:
    """A CSV output's rows as dicts of the printed text."""
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


GOLDEN = Path(__file__).parent / "golden"


def output_numbers(path: Path):
    """(labels, values) of a CSV or chi JSON output, the values as floats."""
    text = path.read_text()
    if path.suffix == ".json":
        doc = json.loads(text)
        return doc["basis"], np.array([doc["re"], doc["im"]], dtype=float)
    header, *rows = text.splitlines()
    return header, np.array([[float(x) for x in row.split(",")] for row in rows])


@pytest.mark.parametrize("golden, argv", [
    ("simulate_ising_n3", ["simulate", "--protocol", "ising", "--n-steps", "3"]),
    ("tomography_heisenberg_theta0.7",
     ["tomography", "--protocol", "heisenberg", "--thetas", "0.7"]),
])
def test_noisy_outputs_match_golden(tmp_path, golden, argv):
    """The noisy engine's outputs against those of the Kraus-sum engine it replaced.

    The CSVs print 12 significant digits, so values are compared, not bytes.
    """
    assert main([*argv, "--out", str(tmp_path)]) == 0
    expected = sorted((GOLDEN / golden).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == [p.name for p in expected]
    for ref in expected:
        labels, values = output_numbers(tmp_path / ref.name)
        ref_labels, ref_values = output_numbers(ref)
        assert labels == ref_labels and values.shape == ref_values.shape
        assert np.max(np.abs(values - ref_values)) <= 1e-11, ref.name


def write_config(tmp_path: Path, **kwargs) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(kwargs))
    return str(path)


class TestSimulate:
    def test_xy_full_transfer_row(self, tmp_path):
        cfg = write_config(tmp_path, protocol="xy",
                           theta_grid=[0.0, math.pi / 2, math.pi],
                           initial_state="fig2", noise="off")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "xy_dynamics.csv")
        assert header[:2] == ["theta", "sx1"]
        assert "noisy_sx1" not in header
        row = rows[-1]
        assert row["sy1"] == pytest.approx(1.0, abs=1e-9)
        assert row["sz2"] == pytest.approx(1.0, abs=1e-9)
        assert row["fid_vs_exact"] == pytest.approx(1.0, abs=1e-9)

    def test_heisenberg_swap_row_and_exactness(self, tmp_path):
        cfg = write_config(tmp_path, protocol="heisenberg",
                           theta_grid=[0.4, math.pi / 2, 2.0, 5.0],
                           initial_state="fig2", noise="off")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "heisenberg_dynamics.csv")
        for row in rows:
            assert row["fid_vs_exact"] == pytest.approx(1.0, abs=1e-9)
        swap_row = rows[1]
        assert swap_row["sx1"] == pytest.approx(1.0, abs=1e-9)
        assert swap_row["sz2"] == pytest.approx(1.0, abs=1e-9)

    def test_ising_correlator_frequency(self, tmp_path):
        thetas = list(np.linspace(0.0, 3 * math.pi, 256))
        cfg = write_config(tmp_path, protocol="ising", theta_grid=thetas,
                           n_steps=3, b_over_j=3.0, initial_state="fig3",
                           noise="off")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "ising_dynamics.csv")
        signal = [r["xx_corr"] for r in rows]
        omega = dominant_angular_frequency(signal, (thetas[1] - thetas[0]) / 2)
        target = 2 * math.sqrt(10)
        assert abs(omega - target) / target < 0.02

    def test_noisy_columns_present(self, tmp_path):
        cfg = write_config(tmp_path, protocol="ising", theta_grid=[1.0, 2.0],
                           n_steps=2)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "ising_dynamics.csv")
        assert "noisy_sz1" in header and "noisy_fid_vs_exact" in header
        for row in rows:
            assert 0.0 <= row["noisy_fid_vs_exact"] <= 1.0
            assert row["noisy_fid_vs_exact"] <= row["fid_vs_exact"] + 0.02

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, protocol="ising", theta_grid=[0.5, 1.5],
                           n_steps=2)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "ising_dynamics.csv").read_bytes() == \
               (out2 / "ising_dynamics.csv").read_bytes()

    def test_all_values_finite(self, tmp_path):
        cfg = write_config(tmp_path, protocol="heisenberg",
                           theta_grid=[0.1, 1.0, 4.0])
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "heisenberg_dynamics.csv")
        for row in rows:
            for v in row.values():
                assert math.isfinite(v)


class TestConfigErrors:
    def test_empty_theta_grid(self, tmp_path):
        cfg = write_config(tmp_path, protocol="xy", theta_grid=[])
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_descending_grid(self, tmp_path):
        cfg = write_config(tmp_path, protocol="xy", theta_grid=[2.0, 1.0])
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unknown_preset(self, tmp_path):
        cfg = write_config(tmp_path, protocol="xy", theta_grid=[1.0],
                           initial_state="figX")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unknown_protocol(self, tmp_path):
        cfg = write_config(tmp_path, protocol="kitaev", theta_grid=[1.0])
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = write_config(tmp_path, protocol="xy", theta_grid=[1.0], foo=1)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_bad_amplitudes(self, tmp_path):
        cfg = write_config(tmp_path, protocol="xy", theta_grid=[1.0],
                           initial_state=[1.0, 1.0, 0.0, 0.0])  # unnormalized
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_noise_null_means_default_noise(self, tmp_path):
        cfg = write_config(tmp_path, protocol="xy", theta_grid=[1.0], noise=None)
        assert load_config(cfg, {}).noise == NoiseParams()
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, _ = read_csv(tmp_path / "xy_dynamics.csv")
        assert "noisy_fid_vs_exact" in header

    def test_custom_amplitudes_accepted(self, tmp_path):
        s = 1.0 / math.sqrt(2.0)
        cfg = write_config(tmp_path, protocol="xy", theta_grid=[1.0],
                           initial_state=[[s, 0.0], [0.0, -s], [0.0, 0.0], [0.0, 0.0]],
                           noise="off")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("b_over_j", [math.nan, math.inf, -math.inf])
    def test_run_config_rejects_non_finite_b_over_j(self, b_over_j):
        with pytest.raises(ConfigError, match="b_over_j must be finite"):
            RunConfig(b_over_j=b_over_j)


class TestTrotterScan:
    def test_columns_and_predictions(self, tmp_path):
        cfg = write_config(tmp_path, protocol="ising",
                           theta_grid=[math.pi / 4, 3 * math.pi / 2],
                           n_list=[1, 2, 3, 4, 5], noise="off")
        assert main(["trotter-scan", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "trotter_scan.csv")
        assert header == ["theta", "n", "fid_ideal_trotter", "fid_noisy",
                          "f_s_predicted"]
        expected = {1: 0.931, 2: 0.862, 3: 0.794, 4: 0.725, 5: 0.656}
        for row in rows:
            assert row["f_s_predicted"] == pytest.approx(expected[int(row["n"])],
                                                         abs=1e-3)
        small = [r for r in rows if abs(r["theta"] - math.pi / 4) < 1e-9]
        assert small[0]["fid_ideal_trotter"] > 0.98
        big = {int(r["n"]): r["fid_ideal_trotter"] for r in rows
               if abs(r["theta"] - 3 * math.pi / 2) < 1e-9}
        assert big[5] > big[1]

    def test_noisy_rows_match_noise_engine(self, tmp_path):
        cfg = write_config(tmp_path, theta_grid=[0.5, 1.0], n_list=[1, 3])
        assert main(["trotter-scan", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "trotter_scan.csv")
        h = oracle_hamiltonian("ising", 3.0, -1)
        rho0 = np.outer(FIG3, FIG3.conj())
        assert len(rows) == 4
        for row in rows:
            circ = compile_ising(EvolutionParams(row["theta"], int(row["n"]), 3.0))
            rho = simulate_noisy(circ, NoiseParams(), rho0)
            expected = state_fidelity(rho, exact_evolve(h, row["theta"] / 2.0, FIG3))
            assert row["fid_noisy"] == float(f"{expected:.12g}")
            assert row["fid_noisy"] < row["fid_ideal_trotter"]

    @pytest.mark.parametrize("thetas, n_list, b_over_j, j_sign, state, flags", [
        ("0,0.3,1.7,3.1", "1,2,5", -2.5, 1, "bell", []),
        ("0,0.3,1.7,3.1", "1,2,5", -2.5, 1, "bell", ["--no-noise"]),
        ("0.5,2", "3,1", 3.0, -1, None, []),
        ("0.001,6.2", "4", 0.0, -1, "up-up", ["--no-noise"]),
        ("0.7", "2,7", 1.25, 1, "fig2", []),
    ])
    def test_each_n_equals_simulate(self, tmp_path, thetas, n_list, b_over_j, j_sign,
                                    state, flags):
        """Each scan row's fidelities are, as text, the ``fid_vs_exact`` and
        ``noisy_fid_vs_exact`` of ``simulate --protocol ising --n-steps n``."""
        common = ["--thetas", thetas, f"--b-over-j={b_over_j}", f"--j-sign={j_sign}", *flags]
        if state is not None:
            common += ["--initial-state", state]
        assert main(["trotter-scan", "--n-list", n_list, *common,
                     "--out", str(tmp_path / "scan")]) == 0
        scan = text_rows(tmp_path / "scan" / "trotter_scan.csv")
        noisy = "fid_vs_exact" if "--no-noise" in flags else "noisy_fid_vs_exact"
        for n in n_list.split(","):
            out = tmp_path / f"n{n}"
            assert main(["simulate", "--protocol", "ising", "--n-steps", n, *common,
                         "--out", str(out)]) == 0
            sim = text_rows(out / "ising_dynamics.csv")
            assert ([(r["theta"], r["fid_ideal_trotter"], r["fid_noisy"])
                     for r in scan if r["n"] == n]
                    == [(r["theta"], r["fid_vs_exact"], r[noisy]) for r in sim])


class TestTomographyCommand:
    def test_noiseless_process_fidelity_one(self, tmp_path):
        cfg = write_config(tmp_path, protocol="xy", theta_grid=[math.pi],
                           noise="off")
        assert main(["tomography", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "tomography_report.csv")
        assert rows[0]["f_process"] == pytest.approx(1.0, abs=1e-9)
        doc = json.loads((tmp_path / "chi_xy_theta000.json").read_text())
        assert doc["basis"][0] == "II"

    @pytest.mark.parametrize("noise", [[], ["--no-noise"]])
    @pytest.mark.parametrize("protocol", ["xy", "heisenberg", "ising"])
    def test_chi_files_are_json_encoder_bytes(self, tmp_path, protocol, noise):
        """Each chi file holds json's own indent=1 text of the same chi."""
        thetas = [0.0, 1.0, math.pi]
        assert main(["tomography", "--protocol", protocol, *noise, "--thetas",
                     ",".join(map(repr, thetas)), "--out", str(tmp_path)]) == 0
        cfg = load_config(None, {"protocol": protocol, "theta_grid": thetas,
                                 **({"noise": "off"} if noise else {})})
        for i, theta in enumerate(thetas):
            circ = build_circuit(cfg, theta)
            u = circuit_unitary(circ)
            chi = process_tomography(
                (lambda rho: simulate_noisy(circ, cfg.noise, rho)) if cfg.noise
                else (lambda rho: u @ rho @ u.conj().T))
            written = (tmp_path / f"chi_{protocol}_theta{i:03d}.json").read_bytes()
            assert written == json_reference(chi).encode()

    def test_noisy_xy_process_fidelity(self, tmp_path):
        cfg = write_config(tmp_path, protocol="xy", theta_grid=[math.pi])
        assert main(["tomography", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "tomography_report.csv")
        assert abs(rows[0]["f_process"] - 0.953) <= 0.03


class TestScheduleCommand:
    def test_ising_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, protocol="ising", theta_grid=[math.pi / 2],
                           n_steps=2)
        assert main(["schedule", "--config", cfg, "--out", str(tmp_path)]) == 0
        circuit_txt = (tmp_path / "ising_theta000_circuit.txt").read_text()
        assert "XY theta=" in circuit_txt
        timeline = (tmp_path / "ising_theta000_timeline.csv").read_text()
        starts = sorted(float(line.split(",")[1])
                        for line in timeline.splitlines()[1:]
                        if line.split(",")[3] == "xy")
        for a, b in zip(starts, starts[1:]):
            r = (b - a) % 5.0
            assert min(r, 5.0 - r) < 1e-9

    def test_heisenberg_three_flux_events(self, tmp_path):
        cfg = write_config(tmp_path, protocol="heisenberg",
                           theta_grid=[math.pi / 2])
        assert main(["schedule", "--config", cfg, "--out", str(tmp_path),
                     "--dump-timeline"]) == 0
        timeline = (tmp_path / "heisenberg_theta000_timeline.csv").read_text()
        xy_rows = [l for l in timeline.splitlines() if l.split(",")[-1] == "xy"]
        assert len(xy_rows) == 3

    def test_empty_grid_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, protocol="ising", theta_grid=[])
        assert main(["schedule", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_configured_gate_durations_reach_timeline(self, tmp_path):
        # the noise model's timings are the ones the schedule is built with
        cfg = write_config(tmp_path, protocol="xy", theta_grid=[math.pi],
                           noise={"gate_durations": {"xy_buffer_ns": 10,
                                                     "post_flux_wait_ns": 60}})
        assert main(["schedule", "--config", cfg, "--out", str(tmp_path),
                     "--dump-timeline"]) == 0
        rows = (tmp_path / "xy_theta000_timeline.csv").read_text().splitlines()[1:]
        buffers = [float(r.split(",")[2]) for r in rows if r.endswith(",buffer")]
        assert buffers == [10.0, 10.0]

    def test_no_noise_keeps_configured_timings(self, tmp_path):
        cfg = write_config(tmp_path, noise={"gate_durations": {"xy_buffer_ns": 10}})
        argv = ["schedule", "--config", cfg, "--protocol", "xy", "--thetas", "1.0",
                "--dump-timeline"]
        assert main([*argv, "--out", str(tmp_path / "noisy")]) == 0
        assert main([*argv, "--no-noise", "--out", str(tmp_path / "quiet")]) == 0
        timeline = (tmp_path / "noisy" / "xy_theta000_timeline.csv").read_bytes()
        assert b",10,buffer" in timeline
        assert (tmp_path / "quiet" / "xy_theta000_timeline.csv").read_bytes() == timeline

    def test_circuit_round_trip_through_dump(self, tmp_path):
        cfg = write_config(tmp_path, protocol="ising", theta_grid=[math.pi],
                           n_steps=2)
        assert main(["schedule", "--config", cfg, "--out", str(tmp_path),
                     "--dump-circuit"]) == 0
        dumped = tmp_path / "ising_theta000_circuit.txt"
        out2 = tmp_path / "again"
        assert main(["schedule", "--config", cfg, "--out", str(out2),
                     "--circuit-in", str(dumped), "--dump-timeline"]) == 0
        direct = tmp_path / "direct"
        assert main(["schedule", "--config", cfg, "--out", str(direct),
                     "--dump-timeline"]) == 0
        a = (out2 / "ising_input_timeline.csv").read_text()
        b = (direct / "ising_theta000_timeline.csv").read_text()
        assert a == b


def test_flag_overrides_beat_config(tmp_path):
    cfg = write_config(tmp_path, protocol="xy", theta_grid=[1.0, 2.0])
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path),
                 "--protocol", "heisenberg", "--thetas", "0.5",
                 "--no-noise"]) == 0
    assert (tmp_path / "heisenberg_dynamics.csv").exists()


# --circuit-in files written by test_input_errors_exit_2
FIELD_CIRCUIT = ("# n_qubits=2 protocol=ising b_over_j={}\n"
                 "ROT axis=z angle=0.5 q=0\nROT axis=z angle=0.5 q=1\nXY theta=1.0\n")
HUGE = 10 ** 400  # a JSON integer that no float can hold
THETA_CIRCUIT = ("# n_qubits=2 protocol=ising b_over_j=2.0 theta={}\n"
                 "ROT axis=z angle=0.5 q=1\nXY theta=1.0\n")

BAD_CIRCUITS = {
    "bad.txt": "# n_qubits=2\nXY foo=1\n",
    "nan-theta.txt": "# n_qubits=2\nXY theta=nan\n",
    "inf-angle.txt": "# n_qubits=2\nROT axis=z angle=inf q=0\n",
    "nan-wait.txt": "# n_qubits=2\nWAIT ns=nan\n",
    "three-qubits.txt": "# n_qubits=3\nXY theta=1.0\n",
    "b-over-j-abc.txt": FIELD_CIRCUIT.format("abc"),
    "b-over-j-nan.txt": FIELD_CIRCUIT.format("nan"),
    "b-over-j-inf.txt": FIELD_CIRCUIT.format("inf"),
    "b-over-j-tiny.txt": FIELD_CIRCUIT.format("1e-310"),
    "b-over-j-huge-int.txt": FIELD_CIRCUIT.format(HUGE),
    "theta-nan.txt": THETA_CIRCUIT.format("nan"),
    "theta-x.txt": THETA_CIRCUIT.format("x"),
    "unknown-kind.txt": "# n_qubits=2\nFOO x=1\n",
    "j-sign-float.txt": "# n_qubits=2 j_sign=1.0\nXY theta=1.0\n",
    "n-qubits-float.txt": "# n_qubits=2.0\nXY theta=1.0\n",
    "n-steps-fractional.txt": "# n_qubits=2 n_steps=2.5\nXY theta=1.0\nXY theta=1.0\n",
    "j-sign-5.txt": "# n_qubits=2 j_sign=5\nXY theta=1.0\n",
    "n-steps-0.txt": "# n_qubits=2 n_steps=0\nXY theta=1.0\n",
    "n-steps-negative.txt": "# n_qubits=2 n_steps=-3\nXY theta=1.0\n",
    "qubit-2.txt": "# n_qubits=2\nROT axis=x angle=1.0 q=2\n",
    "unknown-field.txt": "# n_qubits=2\nXY theta=1.0 foo=3\n",
    "repeated-field.txt": "# n_qubits=2\nROT axis=x angle=1.0 q=0 q=1\n",
    "repeated-theta.txt": "# n_qubits=2\nXY theta=2.0 theta=0.5\n",
}


@pytest.mark.parametrize("command, config, flags", [
    pytest.param("simulate", {"n_steps": "abc"}, [], id="n_steps-text"),
    pytest.param("simulate", {"b_over_j": "x"}, [], id="b_over_j-text"),
    pytest.param("trotter-scan", {"n_list": [1, "z"]}, [], id="n_list-text"),
    pytest.param("simulate", {"noise": {"t1_us": 5}}, [], id="t1_us-scalar"),
    pytest.param("simulate", {"initial_state": ["a", 0, 0, 0]}, [],
                 id="amplitude-text"),
    pytest.param("simulate", {"theta_grid": [0.5, math.nan]}, [], id="theta-nan"),
    pytest.param("simulate", {"theta_grid": [0.5, math.inf]}, [], id="theta-inf"),
    pytest.param("schedule", {}, ["--thetas", "nan"], id="thetas-flag-nan"),
    pytest.param("trotter-scan", {}, ["--n-list", "1,x"], id="n-list-flag-text"),
    # an empty list flag is a given flag, not a request for the defaults
    pytest.param("simulate", {}, ["--thetas=", "--no-noise"], id="thetas-flag-empty"),
    pytest.param("trotter-scan", {}, ["--n-list="], id="n-list-flag-empty"),
    pytest.param("simulate", {"noise": {"t1_us": [1e-320, 7.1], "t2_us": [1e-320, 4.9]}},
                 [], id="t1-t2-rate-overflow"),
    pytest.param("schedule", {}, ["--circuit-in", "missing.txt"],
                 id="circuit-in-missing"),
    pytest.param("schedule", {}, ["--circuit-in", "bad.txt"], id="circuit-in-bad-line"),
    pytest.param("simulate", {"noise": {"gate_durations": {"buffer_ns": 10}}}, [],
                 id="gate-durations-unknown-key"),
    pytest.param("schedule", {"noise": {"gate_durations": {"xy_buffer_ns": -1}}}, [],
                 id="gate-durations-negative"),
    pytest.param("simulate", {"noise": {"theta_to_ns": 0}}, [], id="theta_to_ns-zero"),
    pytest.param("schedule", {"noise": {"theta_to_ns": -2.0}}, [],
                 id="theta_to_ns-negative"),
    pytest.param("simulate", {"noise": {"single_qubit_fidelity": 0.4}}, [],
                 id="single-qubit-fidelity-below-half"),
    pytest.param("schedule", {}, ["--circuit-in", "nan-theta.txt"],
                 id="circuit-in-nan-theta"),
    pytest.param("schedule", {}, ["--circuit-in", "inf-angle.txt"],
                 id="circuit-in-inf-angle"),
    pytest.param("schedule", {}, ["--circuit-in", "nan-wait.txt"],
                 id="circuit-in-nan-wait"),
    pytest.param("schedule", {}, ["--circuit-in", "three-qubits.txt"],
                 id="circuit-in-three-qubits"),
    pytest.param("schedule", {}, ["--circuit-in", "b-over-j-abc.txt"],
                 id="circuit-in-b-over-j-text"),
    pytest.param("schedule", {}, ["--circuit-in", "b-over-j-nan.txt"],
                 id="circuit-in-b-over-j-nan"),
    pytest.param("schedule", {}, ["--circuit-in", "b-over-j-inf.txt"],
                 id="circuit-in-b-over-j-inf"),
    pytest.param("schedule", {}, ["--circuit-in", "b-over-j-tiny.txt"],
                 id="circuit-in-rz-pulse-overflow"),
    pytest.param("schedule", {}, ["--protocol", "xy", "--thetas", "1e308"],
                 id="xy-pulse-overflow"),
    pytest.param("schedule", {}, ["--circuit-in", "j-sign-5.txt"],
                 id="circuit-in-j-sign-5"),
    pytest.param("schedule", {}, ["--circuit-in", "n-steps-0.txt"],
                 id="circuit-in-n-steps-0"),
    pytest.param("schedule", {}, ["--circuit-in", "n-steps-negative.txt"],
                 id="circuit-in-n-steps-negative"),
    pytest.param("schedule", {}, ["--circuit-in", "b-over-j-huge-int.txt"],
                 id="circuit-in-b-over-j-huge-int"),
    pytest.param("schedule", {}, ["--circuit-in", "theta-nan.txt"],
                 id="circuit-in-theta-nan"),
    pytest.param("schedule", {}, ["--circuit-in", "theta-x.txt"],
                 id="circuit-in-theta-text"),
    pytest.param("schedule", {}, ["--circuit-in", "unknown-kind.txt"],
                 id="circuit-in-unknown-kind"),
    pytest.param("schedule", {}, ["--circuit-in", "j-sign-float.txt"],
                 id="circuit-in-j-sign-float"),
    pytest.param("schedule", {}, ["--circuit-in", "n-qubits-float.txt"],
                 id="circuit-in-n-qubits-float"),
    pytest.param("schedule", {}, ["--circuit-in", "n-steps-fractional.txt"],
                 id="circuit-in-n-steps-fractional"),
    pytest.param("schedule", {}, ["--circuit-in", "qubit-2.txt"],
                 id="circuit-in-qubit-2"),
    pytest.param("schedule", {}, ["--circuit-in", "unknown-field.txt"],
                 id="circuit-in-unknown-field"),
    pytest.param("schedule", {}, ["--circuit-in", "repeated-field.txt"],
                 id="circuit-in-repeated-field"),
    pytest.param("schedule", {}, ["--circuit-in", "repeated-theta.txt"],
                 id="circuit-in-repeated-theta"),
    pytest.param("simulate", {"protocol": "ising", "n_steps": 2.7}, [],
                 id="n_steps-fractional"),
    pytest.param("simulate", {"n_steps": True}, [], id="n_steps-bool"),
    pytest.param("trotter-scan", {"n_list": [2.7]}, [], id="n_list-fractional"),
    pytest.param("simulate", {"j_sign": -1.5}, [], id="j_sign-fractional"),
    pytest.param("simulate", {"noise": {"t1_us": [math.nan, 6.7]}}, [], id="t1_us-nan"),
    pytest.param("simulate", {"noise": {"t2_us": [5.4, math.nan]}}, [], id="t2_us-nan"),
    pytest.param("simulate", {"theta_grid": "0123"}, [], id="theta_grid-string"),
    pytest.param("trotter-scan", {"n_list": "12"}, [], id="n_list-string"),
    pytest.param("simulate", {"noise": {"t1_us": "78"}}, [], id="t1_us-string"),
    pytest.param("simulate", {"noise": {"t2_us": "45"}}, [], id="t2_us-string"),
    pytest.param("trotter-scan", {"n_list": []}, [], id="n_list-empty"),
    pytest.param("simulate", {"b_over_j": 1e308}, ["--protocol", "ising", "--thetas", "8"],
                 id="simulate-z-angle-overflow"),
    pytest.param("schedule", {"b_over_j": 1e308}, ["--protocol", "ising", "--thetas", "8"],
                 id="schedule-z-angle-overflow"),
    pytest.param("trotter-scan", {"b_over_j": 1e308}, ["--thetas", "8"],
                 id="trotter-scan-z-angle-overflow"),
    pytest.param("simulate", {}, ["--thetas", "-1"], id="thetas-flag-negative"),
    pytest.param("simulate", {}, ["--protocol", "ising", "--n-steps", "0"],
                 id="n-steps-flag-0"),
    pytest.param("trotter-scan", {}, ["--n-list", "0"], id="n-list-flag-0"),
    pytest.param("simulate", {"j_sign": 2}, [], id="j_sign-2"),
    pytest.param("simulate", {"initial_state": [1, 0, 0]}, [],
                 id="initial-state-3-amplitudes"),
    pytest.param("simulate", {"initial_state": [[1, 0, 0], 0, 0, 0]}, [],
                 id="amplitude-pair-3-entries"),
    pytest.param("simulate", {"noise": 5}, [], id="noise-number"),
    pytest.param("simulate", {"noise": {"t3_us": [1, 2]}}, [], id="noise-unknown-field"),
    pytest.param("simulate", {"noise": {"gate_durations": []}}, [],
                 id="gate-durations-array"),
    pytest.param("simulate", None, [], id="config-missing"),
    pytest.param("simulate", [1, 2], [], id="config-array"),
    pytest.param("simulate", b"\xff\xfe{}", [], id="config-not-utf8"),
    pytest.param("simulate", {"b_over_j": math.nan}, [], id="b_over_j-nan"),
    pytest.param("simulate", {}, ["--b-over-j", "nan"], id="b-over-j-flag-nan"),
    pytest.param("simulate", {"noise": {"t1_us": [40, 40, 40]}}, [],
                 id="t1_us-3-entries"),
    pytest.param("simulate", {"noise": {"jz_tilde_angle_deg": math.inf}}, [],
                 id="jz-tilde-angle-inf"),
    # JSON true and false are not numbers, though Python reads them as 1 and 0
    pytest.param("simulate", {"b_over_j": True}, [], id="b_over_j-bool"),
    pytest.param("simulate", {"theta_grid": [True]}, [], id="theta_grid-bool"),
    pytest.param("simulate", {"initial_state": [True, 0, 0, 0]}, [], id="amplitude-bool"),
    pytest.param("simulate", {"initial_state": [[True, 0], 0, 0, 0]}, [],
                 id="amplitude-pair-bool"),
    # with the default T2, a T1 of 1 us would fail as T2 > 2 T1
    pytest.param("simulate", {"noise": {"t1_us": [True, 6.7], "t2_us": [1.0, 4.9]}}, [],
                 id="t1_us-bool"),
    pytest.param("simulate", {"noise": {"theta_to_ns": True}}, [], id="theta_to_ns-bool"),
    pytest.param("schedule", {"noise": {"gate_durations": {"single_qubit_ns": False}}}, [],
                 id="gate-durations-bool"),
    # JSON integers beyond the float range; a large but representable n_steps
    # would really be compiled, so only unrepresentable ones are tried
    pytest.param("simulate", {"b_over_j": HUGE}, [], id="b_over_j-huge-int"),
    pytest.param("simulate", {"theta_grid": [HUGE]}, [], id="theta_grid-huge-int"),
    pytest.param("simulate", {"initial_state": [HUGE, 0, 0, 0]}, [],
                 id="amplitude-huge-int"),
    pytest.param("simulate", {"noise": {"t1_us": [HUGE, 7]}}, [], id="t1_us-huge-int"),
    pytest.param("schedule", {"protocol": "ising", "n_steps": HUGE}, ["--thetas", "1.0"],
                 id="n_steps-huge-int"),
    pytest.param("trotter-scan", {}, ["--n-list", str(HUGE), "--thetas", "1.0"],
                 id="n-list-flag-huge-int"),
    # a step count far above MAX_STEPS (see
    # test_n_steps_above_max_steps_is_a_config_error)
    pytest.param("trotter-scan", {"n_list": [1, 10 ** 15]}, ["--thetas", "1.0"],
                 id="n_list-beyond-memory"),
])
def test_input_errors_exit_2(tmp_path, monkeypatch, command, config, flags):
    """``config`` is dumped as JSON, written raw if bytes, or not written if None."""
    monkeypatch.chdir(tmp_path)
    for name, text in BAD_CIRCUITS.items():
        (tmp_path / name).write_text(text)
    cfg = tmp_path / "config.json"
    if config is not None:
        cfg.write_bytes(config if isinstance(config, bytes)
                        else json.dumps(config).encode())
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"),
                 *flags]) == 2


@pytest.mark.parametrize("config, path", [
    pytest.param({"foo": 1}, "foo", id="top-key"),
    pytest.param({"n_steps": "abc"}, "n_steps", id="top-value"),
    pytest.param({"noise": {"t3_us": [1, 2]}}, "noise.t3_us", id="noise-key"),
    pytest.param({"noise": {"t1_us": "78"}}, "noise.t1_us", id="noise-value"),
    pytest.param({"noise": {"gate_durations": {"buffer_ns": 10}}},
                 "noise.gate_durations.buffer_ns", id="gate-durations-key"),
    pytest.param({"noise": {"gate_durations": {"single_qubit_ns": "x"}}},
                 "noise.gate_durations.single_qubit_ns", id="gate-durations-value"),
])
def test_config_error_names_its_key_path(tmp_path, capsys, config, path):
    """One short line that names the key path, at each level of the config,
    with the "bad" prefix of a nested value said once."""
    cfg = write_config(tmp_path, **config)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200
    assert f" {path}: " in err or err.endswith(f" {path}\n")
    assert err.count("bad ") <= 1


LONG = 300  # characters of a rejected value or key


@pytest.mark.parametrize("config, start, end", [
    pytest.param({"noise": {"t1_us": "x" * LONG}},
                 "bad noise.t1_us: expected an array, got 'xxx", "xxx'", id="noise-value"),
    pytest.param({"b_over_j": "x" * LONG},
                 "bad b_over_j: could not convert string to float: 'xxx", "xxx'", id="top-value"),
    pytest.param({"k" * LONG: 1}, "unknown config keys: kkk", "kkk", id="top-key"),
    pytest.param({"noise": {"gate_durations": {"k" * LONG: 1}}},
                 "unknown config keys: noise.gate_durations.kkk", "kkk",
                 id="gate-durations-key"),
    pytest.param({"initial_state": "x" * LONG}, "unknown initial-state preset 'xxx",
                 "xxx'; choose from ['bell', 'fig2', 'fig3', 'up-up'] or give 4 amplitudes",
                 id="preset"),
    pytest.param({"protocol": "x" * LONG}, "unknown protocol 'xxx", "xxx'", id="protocol"),
])
def test_long_config_error_keeps_its_start_and_end(tmp_path, capsys, config, start, end):
    """A rejected value or key of any length gives one line under 200
    characters that keeps the message's start, which names the key path, and
    its end."""
    cfg = write_config(tmp_path, **config)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200
    assert err.startswith(f"config error: {start}") and err.endswith(f"{end}\n")
    assert "..." in err


def test_config_error_under_the_bound_keeps_its_bytes(tmp_path, capsys):
    """A 199-character line is printed whole; one more character clips it."""
    argv = ["simulate", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path)]
    write_config(tmp_path, protocol="x" * 165)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: unknown protocol '{'x' * 165}'\n"
    write_config(tmp_path, protocol="x" * 166)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err) == 199 and "..." in err


def test_every_flag_sets_its_own_config_field(tmp_path, monkeypatch):
    """Each flag's dest is its config key: it sets that RunConfig field and
    no other.  schedule ignores --no-noise."""
    seen = []
    for name in ("cmd_trotter_scan", "cmd_schedule"):
        monkeypatch.setattr(spinsim.cli, name, lambda cfg, *args: seen.append(cfg) or 0)
    default = RunConfig()
    for flags, field, value in [
            (["--protocol", "heisenberg"], "protocol", "heisenberg"),
            (["--thetas", "0.5,1.5"], "theta_grid", (0.5, 1.5)),
            (["--n-steps", "4"], "n_steps", 4),
            (["--b-over-j", "-2.5"], "b_over_j", -2.5),
            (["--initial-state", "bell"], "initial_state", "bell"),
            (["--j-sign", "1"], "j_sign", 1),
            (["--no-noise"], "noise", None),
            (["--n-list", "2,7"], "n_list", (2, 7))]:
        assert main(["trotter-scan", *flags, "--out", str(tmp_path)]) == 0
        cfg = seen.pop()
        assert cfg == default._replace(**{field: value}), flags
    assert main(["schedule", "--no-noise", "--out", str(tmp_path)]) == 0
    assert seen.pop() == default


def test_loaded_config_is_hashable_tuples(tmp_path):
    """Every JSON array of a loaded config is a tuple, the amplitude pairs
    too, and psi0 is numpy's normalisation of the same amplitudes."""
    s = 1.0 / math.sqrt(2.0)
    state = [[s, 0.0], [0.0, -s], 0, [0, 1e-7]]
    cfg = load_config(write_config(tmp_path, theta_grid=[0.5, 1], n_list=[2, 3],
                                   initial_state=state, noise={"t1_us": [7, 7]}), {})
    assert cfg.initial_state == ((s, 0.0), (0.0, -s), 0, (0, 1e-7))
    assert (cfg.theta_grid, cfg.n_list, cfg.noise.t1_us) == ((0.5, 1.0), (2, 3), (7.0, 7.0))
    assert hash(cfg) == hash(load_config(str(tmp_path / "config.json"), {}))
    psi = np.array([complex(*a) if isinstance(a, list) else a for a in state], dtype=complex)
    assert cfg.psi0().tobytes() == (psi / np.linalg.norm(psi)).tobytes()
    assert cfg.psi0().tobytes() == RunConfig(initial_state=state).psi0().tobytes()


def test_unknown_gate_kind_names_the_line(tmp_path, capsys):
    path = tmp_path / "unknown-kind.txt"
    path.write_text(BAD_CIRCUITS["unknown-kind.txt"])
    assert main(["schedule", "--circuit-in", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"config error: cannot read circuit {path}: "
                                       "ValueError(\"unknown gate line: 'FOO x=1'\")\n")


@pytest.mark.parametrize("name", ["unknown-field.txt", "repeated-field.txt",
                                  "repeated-theta.txt"])
def test_bad_gate_fields_name_the_line(tmp_path, capsys, name):
    """A gate line gives each field of its kind once and no other field."""
    path = tmp_path / name
    path.write_text(BAD_CIRCUITS[name])
    assert main(["schedule", "--circuit-in", str(path), "--out", str(tmp_path / "out")]) == 2
    line = BAD_CIRCUITS[name].splitlines()[1]
    assert capsys.readouterr().err == (f"config error: cannot read circuit {path}: "
                                       f"ValueError(\"bad fields in gate line: {line!r}\")\n")


BOUND_ERROR = f"config error: n_steps and the n_list entries must be <= {MAX_STEPS}\n"


def test_huge_n_steps_error_is_one_short_line(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"protocol": "ising", "n_steps": HUGE}))
    assert main(["schedule", "--config", str(cfg), "--thetas", "1.0",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == BOUND_ERROR


# schedule is never run at MAX_STEPS itself: it builds every gate and event
@pytest.mark.parametrize("argv", [
    ["simulate", "--n-steps", str(MAX_STEPS + 1)],
    ["trotter-scan", "--n-list", f"1,{MAX_STEPS + 1}"],
    ["tomography", "--n-steps", str(MAX_STEPS + 1)],
    ["schedule", "--n-steps", str(MAX_STEPS + 1)],
], ids=["simulate", "trotter-scan", "tomography", "schedule"])
def test_n_steps_above_max_steps_is_a_config_error(tmp_path, capsys, argv):
    assert main([*argv, "--protocol", "ising", "--thetas", "1.0",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == BOUND_ERROR


def test_schedule_out_of_memory_is_a_config_error(tmp_path, monkeypatch, capsys):
    """``schedule`` builds the circuit's gate tuple, so it can run out of memory."""
    def out_of_memory(*args):
        raise MemoryError
    monkeypatch.setattr(spinsim.cli, "schedule", out_of_memory)
    assert main(["schedule", "--protocol", "ising", "--n-steps", "3", "--thetas", "1.0",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: cannot schedule theta000: MemoryError\n"


def test_infinite_gate_duration_at_zero_dephasing_rate_decays_fully(tmp_path):
    # T2 = 2 T1 makes the pure-dephasing rate 0, and theta * theta_to_ns
    # overflows to an infinite gate duration
    cfg = write_config(tmp_path, noise={"t1_us": [7, 7], "t2_us": [14, 14],
                                        "theta_to_ns": 1e10})
    assert main(["simulate", "--config", cfg, "--protocol", "xy", "--thetas", "1e300",
                 "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "xy_dynamics.csv")
    assert rows[0]["noisy_sz1"] == rows[0]["noisy_sz2"] == 1.0  # |up up>


def test_exact_evolution_failure_names_theta(tmp_path, capsys):
    # heisenberg compiles any finite angle, but exp(-i h theta/2) overflows
    # once 3 theta/2 does; the one error line is all that is printed, since
    # any numpy warning fails the test under filterwarnings = error
    assert main(["simulate", "--protocol", "heisenberg", "--no-noise",
                 "--thetas", "1,1.5e308,1.6e308", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == ("error: evolution gave a non-finite state "
                                       "at t=7.5e+307 (theta=1.5e+308)\n")


def test_subnormal_field_angles_charge_the_normal_share(tmp_path):
    """At theta = 1e-323 the Q2 phase-gate angles are subnormal; each gate
    still carries half of its step's crosstalk and residual ZZ, so the noisy
    columns agree with those at theta = 1e-300."""
    assert main(["simulate", "--protocol", "ising", "--n-steps", "2", "--b-over-j", "-2.5",
                 "--thetas", "1e-323,1e-300", "--out", str(tmp_path)]) == 0
    header, rows = output_numbers(tmp_path / "ising_dynamics.csv")
    noisy = [i for i, name in enumerate(header.split(",")) if name.startswith("noisy_")]
    assert len(noisy) == 9
    assert np.max(np.abs(rows[0, noisy] - rows[1, noisy])) <= 1e-12


PEAK_BYTES = 4 * 2 ** 20


@pytest.mark.parametrize("argv", [
    ["simulate", "--n-steps", str(MAX_STEPS)],
    ["trotter-scan", "--n-list", str(MAX_STEPS)],
    ["tomography", "--n-steps", str(MAX_STEPS)],
    ["tomography", "--n-steps", str(MAX_STEPS), "--no-noise"],
], ids=["simulate", "trotter-scan", "tomography", "tomography-no-noise"])
def test_peak_memory_is_flat_at_max_steps(tmp_path, argv):
    """A circuit stores its Trotter step once, with n, so three theta at n =
    MAX_STEPS peak under PEAK_BYTES (4 MiB) of traced memory; one n-copy gate
    tuple of the 10-gate step would take 800 MB."""
    tracemalloc.start()
    try:
        assert main([*argv, "--protocol", "ising", "--thetas", "0.3,1.7,2.2",
                     "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BYTES


def held_elsewhere(held: list) -> list[int]:
    """The indices of the entries of ``held`` that something besides ``held``
    refers to.  Read from reference counts: a circuit cannot be
    weak-referenced."""
    probe = [object()]
    floor = sys.getrefcount(probe[0])
    return [i for i in range(len(held)) if sys.getrefcount(held[i]) > floor]


@pytest.mark.parametrize("argv", [
    ["simulate", "--protocol", "ising", "--n-steps", "50", "--thetas", "0.3,1.7,2.2,2.9"],
    ["trotter-scan", "--n-list", "10,20", "--thetas", "0.3,1.7,2.2"],
    ["tomography", "--protocol", "ising", "--n-steps", "50", "--thetas", "0.3,1.7,2.2"],
    ["tomography", "--protocol", "ising", "--n-steps", "50", "--thetas", "0.3,1.7,2.2",
     "--no-noise"],
], ids=["simulate", "trotter-scan", "tomography", "tomography-no-noise"])
def test_only_the_noise_memo_keeps_a_circuit_past_its_command(tmp_path, monkeypatch, argv):
    """Once a command returns, the last circuit of a noisy run, held by the
    superoperator memo, is the only one of its circuits still referenced."""
    build, built = spinsim.cli.build_circuit, []

    def recorded(*args):
        built.append(build(*args))
        return built[-1]
    monkeypatch.setattr(spinsim.cli, "build_circuit", recorded)
    assert main([*argv, "--out", str(tmp_path)]) == 0
    noisy = "--no-noise" not in argv
    assert held_elsewhere(built) == ([len(built) - 1] if noisy else [])
    assert (spinsim.noise._last[0] is built[-1]) == noisy


@pytest.mark.parametrize("noise", [[], ["--no-noise"]], ids=["noise", "no-noise"])
@pytest.mark.parametrize("protocol", ["xy", "ising"])
def test_tomography_takes_its_unitaries_from_one_stacked_call(tmp_path, monkeypatch,
                                                              protocol, noise):
    """One circuit_unitary call per command, which returns the (T, 4, 4)
    stack of the grid's T unitaries."""
    stacked, shapes = spinsim.cli.circuit_unitary, []

    def counted(circuits):
        u = stacked(circuits)
        shapes.append(u.shape)
        return u
    monkeypatch.setattr(spinsim.cli, "circuit_unitary", counted)
    assert main(["tomography", "--protocol", protocol, *noise, "--thetas", "0.3,1.7,2.2",
                 "--out", str(tmp_path)]) == 0
    assert shapes == [(3, 4, 4)]


def test_tomography_resolves_each_circuit_once(tmp_path):
    """The 16 tomography inputs and the report row reuse one composed
    superoperator, which looks up each distinct gate object once: the
    circuit's 11 gates repeat one XY gate three times."""
    circ = build_circuit(load_config(None, {"protocol": "heisenberg"}), 0.7)
    distinct = len({id(g) for g in circ.gates})
    lookups = spinsim.noise._gate_superop.cache_info
    before = lookups().hits + lookups().misses
    assert main(["tomography", "--protocol", "heisenberg", "--thetas", "0.7",
                 "--out", str(tmp_path)]) == 0
    assert lookups().hits + lookups().misses - before == distinct == 9
    assert len(circ.gates) == 11


def test_numerical_error_exits_3(tmp_path, monkeypatch, capsys):
    def overflow(*args):
        raise FloatingPointError("overflow in propagation")
    monkeypatch.setattr(spinsim.cli, "simulate_noisy", overflow)
    assert main(["simulate", "--thetas", "1.0", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "error: overflow in propagation\n"


def test_programming_error_propagates(tmp_path, monkeypatch):
    """A bug is not a numerical error: its traceback is not turned into exit 3."""
    def broken(*args):
        raise TypeError("unsupported operand")
    monkeypatch.setattr(spinsim.cli, "simulate_noisy", broken)
    with pytest.raises(TypeError, match="unsupported operand"):
        main(["simulate", "--thetas", "1.0", "--out", str(tmp_path)])


def test_nan_fidelity_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(spinsim.cli, "state_fidelity", lambda *args: math.nan)
    assert main(["tomography", "--thetas", "1.0", "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "tomography_report.csv").exists()
    assert not list(tmp_path.glob("chi_*.json"))


def test_non_finite_chi_exits_3_and_writes_nothing(tmp_path, monkeypatch, capsys):
    """A NaN chi at the last angle fails the run before any file is written."""
    tomography = spinsim.cli.process_tomography
    chis = []

    def nan_at_third(channel):
        chis.append(tomography(channel))
        if len(chis) == 3:
            chis[-1][0, 0] = math.nan
        return chis[-1]
    monkeypatch.setattr(spinsim.cli, "process_tomography", nan_at_third)
    assert main(["tomography", "--thetas", "0.5,1.0,1.5", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "error: chi has non-finite entries\n"
    assert list(tmp_path.iterdir()) == []


def test_integral_config_values_accepted():
    cfg = load_config(None, {"n_steps": 3.0, "n_list": [1, 2.0, "3"], "j_sign": "1"})
    assert (cfg.n_steps, cfg.n_list, cfg.j_sign) == (3, (1, 2, 3), 1)
    assert all(type(v) is int for v in (cfg.n_steps, *cfg.n_list, cfg.j_sign))


def test_real_config_values_accepted():
    cfg = load_config(None, {"b_over_j": -2, "theta_grid": [0, 0.5, "1.5"]})
    assert (cfg.b_over_j, cfg.theta_grid) == (-2.0, (0.0, 0.5, 1.5))
    assert all(type(v) is float for v in (cfg.b_over_j, *cfg.theta_grid))


def test_benchmark_tracer_names_resolve(tmp_path, monkeypatch):
    """Every name the benchmark's tracer wraps is a global the CLI calls.

    The tracer in perfbench/tracing.py replaces these module attributes for a
    traced pass; a renamed or bypassed one would silently drop its spans.
    Every command compiles through the wrapped compilers: a compiler table
    built at import would miss the wrappers.
    """
    import runpy

    import spinsim.cli
    import spinsim.hamiltonians
    import spinsim.noise

    tracing = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "tracing.py"))
    modules = {"cli": spinsim.cli, "hamiltonians": spinsim.hamiltonians,
               "noise": spinsim.noise}
    for module, attr in tracing["CLI_SPANS"]:
        assert callable(getattr(modules[module], attr)), (module, attr)

    calls = []
    for name in ("compile_ising", "compile_heisenberg"):
        def counted(*args, _name=name, _fn=getattr(spinsim.cli, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(spinsim.cli, name, counted)
    for protocol in ("ising", "heisenberg"):
        assert main(["simulate", "--protocol", protocol, "--thetas", "1.0",
                     "--no-noise", "--out", str(tmp_path)]) == 0
    assert calls == ["compile_ising", "compile_heisenberg"]
    calls.clear()
    assert main(["trotter-scan", "--thetas", "0.5,1.0", "--n-list", "1,3",
                 "--no-noise", "--out", str(tmp_path)]) == 0
    assert calls == ["compile_ising"] * 4
    calls.clear()
    assert main(["tomography", "--protocol", "heisenberg", "--thetas", "1.0",
                 "--no-noise", "--out", str(tmp_path)]) == 0
    assert main(["schedule", "--protocol", "ising", "--thetas", "1.0",
                 "--out", str(tmp_path)]) == 0
    assert calls == ["compile_heisenberg", "compile_ising"]


def test_benchmark_tracer_spans_are_called(tmp_path, monkeypatch):
    """Each sweep span of the benchmark's tracer sees calls from simulate and
    trotter-scan; a name still defined but no longer called reads as 0 s."""
    import spinsim.hamiltonians

    wrapped = [(spinsim.cli, name) for name in ("exact_evolve", "state_fidelity",
                                               "negativity", "circuit_unitary",
                                               "simulate_noisy")]
    wrapped.append((spinsim.hamiltonians, "herm_expm"))
    calls = []
    for module, name in wrapped:
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    assert main(["simulate", "--protocol", "ising", "--thetas", "0,1.5",
                 "--out", str(tmp_path)]) == 0
    assert set(calls) == {name for _, name in wrapped}
    calls.clear()
    assert main(["trotter-scan", "--thetas", "0,1.5", "--n-list", "1,3",
                 "--out", str(tmp_path)]) == 0
    assert set(calls) == {name for _, name in wrapped} - {"negativity"}


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(complex_arrays((n, 4)),
                                                     complex_arrays((n, 4, 4)))))
def test_observables_keep_the_bits_of_one_state_at_a_time(stacks):
    """The stacked dynamics columns equal Tr(rho @ obs) and negativity per state."""
    spinsim.cli._bind_numerics()
    for states in stacks:
        rows = spinsim.cli._observables(states)
        for state, row in zip(states, rows):
            rho = np.outer(state, state.conj()) if state.ndim == 1 else state
            expected = [np.trace(rho @ obs).real for obs in spinsim.cli._OBS]
            assert np.array([*expected, negativity(rho)]).tobytes() == row.tobytes()


# Wrappers installed on spinsim.cli before its first numeric command, as the
# benchmark's tracer installs them in a fresh process. READ_FIRST reads each
# original through spinsim.cli first, as the tracer does; otherwise the
# wrapper is set before anything has bound the name.
WRAP_BEFORE_FIRST_COMMAND = r"""
import sys
import spinsim.cli as cli
from spinsim.cli import main

assert "numpy" not in sys.modules
names = ("simulate_noisy", "process_tomography", "chi_to_json")
calls = dict.fromkeys(names, 0)

def wrap(name, fn):
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped

if READ_FIRST:
    originals = {name: getattr(cli, name) for name in names}
else:
    import spinsim.noise, spinsim.tomography
    originals = {"simulate_noisy": spinsim.noise.simulate_noisy,
                 "process_tomography": spinsim.tomography.process_tomography,
                 "chi_to_json": spinsim.tomography.chi_to_json}
for name in names:
    setattr(cli, name, wrap(name, originals[name]))

def run():
    assert main(["simulate", "--protocol", "ising", "--thetas", "0.5,1.5",
                 "--out", "sim"]) == 0
    assert main(["tomography", "--protocol", "heisenberg", "--thetas", "0.5,1.5",
                 "--out", "tomo"]) == 0

run()
# one noisy run per angle in simulate; 16 inputs and the report state per
# angle in tomography
expected = {"simulate_noisy": 2 + 2 * 17, "process_tomography": 2, "chi_to_json": 2}
assert calls == expected, calls
for name, fn in originals.items():
    setattr(cli, name, fn)
import spinsim.noise, spinsim.tomography
assert cli.simulate_noisy is spinsim.noise.simulate_noisy
assert cli.process_tomography is spinsim.tomography.process_tomography
assert cli.chi_to_json is spinsim.tomography.chi_to_json
run()
assert calls == expected, calls
"""


@pytest.mark.parametrize("read_first", [True, False])
def test_wrappers_installed_before_first_command(tmp_path, read_first):
    """The tracer's order in a fresh interpreter, which an in-process test,
    with the numeric names already bound, cannot reproduce."""
    proc = run_fresh(f"READ_FIRST = {read_first}\n" + WRAP_BEFORE_FIRST_COMMAND,
                     tmp_path)
    assert proc.returncode == 0, proc.stderr


def numpy_norm_check(vec):
    """The initial-state check as numpy's norm makes it: (error text, psi0)."""
    psi = np.array(vec, dtype=complex)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= 1e-6:
        return f"initial state norm is {norm:.6g}, expected 1", None
    return None, psi / norm


@st.composite
def amplitude_vectors(draw):
    """Four amplitudes; often scaled to within a few ulps of norm 1 +- 1e-6."""
    part = st.one_of(st.sampled_from([0.0, -0.0, 5e-324]),
                     st.floats(-2.0, 2.0, allow_subnormal=True))
    vec = [complex(draw(part), draw(part)) for _ in range(4)]
    norm = float(np.linalg.norm(vec))
    if norm > 0.0 and draw(st.booleans()):
        target = draw(st.sampled_from([1.0 - 1e-6, 1.0 + 1e-6, 1.0]))
        steps = draw(st.integers(-4, 4))
        for _ in range(abs(steps)):
            target = math.nextafter(target, math.copysign(math.inf, steps))
        vec = [a * (target / norm) for a in vec]
    return vec


@settings(max_examples=600)
@given(amplitude_vectors())
def test_state_check_matches_numpy_norm(vec):
    error, psi = numpy_norm_check(vec)
    state = [[a.real, a.imag] for a in vec]
    if error is not None:
        with pytest.raises(ConfigError) as exc:
            RunConfig(initial_state=state)
        assert str(exc.value) == error
    else:
        assert RunConfig(initial_state=state).psi0().tobytes() == psi.tobytes()


# angles and magnitudes out to the edges of the float range
_TINY = st.sampled_from((5e-324, 1e-310)) | st.floats(5e-324, 2.2e-308)
_HUGE = st.sampled_from((1e300, 1e308)) | st.floats(1e3, 1e308)
_ANGLES = st.just(0.0) | _TINY | st.floats(0.0, 4 * math.pi) | _HUGE
_MAGNITUDES = _TINY | st.floats(1e-3, 1e3) | st.floats(1e3, 1e300) | st.just(1e300)
_TIMES_US = (st.just(math.inf) | st.floats(1e-300, 1e-3) | st.floats(1e-3, 1e3)
             | st.floats(1e3, 1e300))


@st.composite
def noise_blocks(draw):
    """"off", or a noise block with each field left out or drawn to its edges."""
    if draw(st.booleans()):
        return "off"
    block = {}
    if draw(st.booleans()):
        t1 = [draw(_TIMES_US) for _ in range(2)]
        block["t1_us"] = t1
        # T2 = 2 T1 leaves no pure dephasing; a T2 beyond it is rejected
        block["t2_us"] = [2.0 * t if draw(st.booleans()) else draw(_TIMES_US) for t in t1]
    for key in ("jz_tilde_angle_deg", "crosstalk_phase_deg"):
        if draw(st.booleans()):
            block[key] = draw(st.just(0.0) | st.floats(-10.0, 10.0) | st.floats(-1e300, 1e300))
    if draw(st.booleans()):
        block["single_qubit_fidelity"] = draw(st.floats(0.5, 1.0))
    if draw(st.booleans()):
        block["theta_to_ns"] = draw(_MAGNITUDES)
    if draw(st.booleans()):
        block["gate_durations"] = {key: draw(st.just(0.0) | st.floats(0.0, 1e300))
                                   for key in ("single_qubit_ns", "xy_buffer_ns",
                                               "post_flux_wait_ns")}
    return block


@st.composite
def run_configs(draw):
    """A drawn CLI config: 1 to 3 ascending angles, n, B/J, j_sign, state, noise."""
    config = {
        "protocol": draw(st.sampled_from(PROTOCOLS)),
        "theta_grid": sorted(set(draw(st.lists(_ANGLES, min_size=1, max_size=3)))),
        "n_steps": draw(st.integers(1, 30)),
        "n_list": draw(st.lists(st.integers(1, 30), min_size=1, max_size=3)),
        "b_over_j": draw(st.sampled_from((-1.0, 1.0))) * draw(_MAGNITUDES),
        "j_sign": draw(st.sampled_from((-1, 1))),
        "noise": draw(noise_blocks()),
    }
    state = draw(st.none() | st.sampled_from(sorted(spinsim.cli.PRESETS))
                 | amplitude_vectors().map(lambda v: [[a.real, a.imag] for a in v]))
    if state is not None:
        config["initial_state"] = state
    return config


def assert_chi_is_a_process(path: Path):
    doc = json.loads(path.read_text())
    chi = np.array(doc["re"]) + 1j * np.array(doc["im"])
    assert np.max(np.abs(chi - chi.conj().T)) <= 1e-9, path.name
    assert abs(np.trace(chi) - 1.0) <= 1e-9, path.name
    assert np.linalg.eigvalsh((chi + chi.conj().T) / 2.0)[0] >= -1e-9, path.name


@settings(deadline=None, max_examples=300)
@given(command=st.sampled_from(("simulate", "trotter-scan", "tomography")),
       config=run_configs())
def test_numeric_commands_succeed_or_reject_the_config(tmp_path_factory, command, config):
    """Every config the numeric commands take gives finite CSVs and, from
    tomography, χ matrices of completely positive trace-preserving maps, or
    exits 2 with a one-line message.

    ``schedule`` is left out. It fails validation (exit 4) at θ = 0, which
    ``perfbench/test_smoke.py`` pins and strict xfails cover.
    """
    out = tmp_path_factory.mktemp("run")
    cfg = out / "config.json"
    cfg.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(cfg), "--out", str(out / "out")])
    event(f"{command} exit {code}")
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().count("\n") == 1 and len(err.getvalue()) < 200
        return
    for path in (out / "out").glob("*.csv"):
        _, values = output_numbers(path)
        assert np.isfinite(values).all(), path.name
    for path in (out / "out").glob("chi_*.json"):
        assert_chi_is_a_process(path)
