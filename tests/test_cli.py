import json
import math
from pathlib import Path

import numpy as np
import pytest

from spinsim.cli import load_config, main
from spinsim.hamiltonians import dominant_angular_frequency


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, (float(x) for x in line.split(","))))
            for line in lines[1:]]
    return header, rows


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

    def test_custom_amplitudes_accepted(self, tmp_path):
        s = 1.0 / math.sqrt(2.0)
        cfg = write_config(tmp_path, protocol="xy", theta_grid=[1.0],
                           initial_state=[[s, 0.0], [0.0, -s], [0.0, 0.0], [0.0, 0.0]],
                           noise="off")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0


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


class TestTomographyCommand:
    def test_noiseless_process_fidelity_one(self, tmp_path):
        cfg = write_config(tmp_path, protocol="xy", theta_grid=[math.pi],
                           noise="off")
        assert main(["tomography", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "tomography_report.csv")
        assert rows[0]["f_process"] == pytest.approx(1.0, abs=1e-9)
        doc = json.loads((tmp_path / "chi_xy_theta000.json").read_text())
        assert doc["basis"][0] == "II"

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
    pytest.param("simulate", {"protocol": "ising", "n_steps": 2.7}, [],
                 id="n_steps-fractional"),
    pytest.param("simulate", {"n_steps": True}, [], id="n_steps-bool"),
    pytest.param("trotter-scan", {"n_list": [2.7]}, [], id="n_list-fractional"),
    pytest.param("simulate", {"j_sign": -1.5}, [], id="j_sign-fractional"),
])
def test_input_errors_exit_2(tmp_path, monkeypatch, command, config, flags):
    monkeypatch.chdir(tmp_path)
    for name, text in BAD_CIRCUITS.items():
        (tmp_path / name).write_text(text)
    cfg = write_config(tmp_path, **config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                 *flags]) == 2


def test_integral_config_values_accepted():
    cfg = load_config(None, {"n_steps": 3.0, "n_list": [1, 2.0, "3"], "j_sign": "1"})
    assert (cfg.n_steps, cfg.n_list, cfg.j_sign) == (3, (1, 2, 3), 1)
    assert all(type(v) is int for v in (cfg.n_steps, *cfg.n_list, cfg.j_sign))
