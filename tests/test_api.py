import copy
import importlib
import inspect
import math
import os
import pickle
import subprocess
import sys
import tokenize
from pathlib import Path
from types import FunctionType

import pytest

import spinsim
import spinsim.cli
import spinsim.noise
import spinsim.scheduler
from spinsim import (EvolutionParams, NoiseParams, PulseEvent, PulseTimeline, SpinModelSpec,
                     TimingParams, TomographyRecord)
from spinsim.cli import ConfigError, RunConfig

SRC = Path(spinsim.__file__).resolve().parents[1]


def run_fresh(code: str, cwd: Path) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports spinsim from SRC."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_every_exported_name_resolves():
    missing = [name for name in spinsim.__all__ if not hasattr(spinsim, name)]
    assert missing == []


def test_exports_are_their_home_module_objects():
    for name in spinsim.__all__:
        home = importlib.import_module(f"spinsim.{spinsim._HOME[name]}")
        assert getattr(spinsim, name) is getattr(home, name), name


def public_members(cls) -> set[str]:
    """The public methods, classmethods, staticmethods and properties that a
    class and its spinsim bases define."""
    return {name for klass in cls.__mro__ if klass.__module__.startswith("spinsim")
            for name, value in vars(klass).items()
            if not name.startswith("_")
            and isinstance(value, (FunctionType, classmethod, staticmethod, property))}


def test_every_export_is_used_outside_its_definition():
    """A public name that no module and no acceptance test uses is test-only API.

    So is a public method, classmethod or property of an exported class that
    none of them uses.  A use of a name is a NAME token in src/spinsim (the
    export table in ``__init__`` aside) or in tests/test_acceptance.py that
    is not the name of a def or class.  A use of a member is such a token
    read as an attribute, ``X.member``, so a local variable of the same name
    does not count.
    """
    files = [p for p in (SRC / "spinsim").glob("*.py") if p.name != "__init__.py"]
    files.append(Path(__file__).with_name("test_acceptance.py"))
    used, attributes = set(), set()
    for path in files:
        with tokenize.open(path) as f:
            prev = ""
            for tok in tokenize.generate_tokens(f.readline):
                if tok.type == tokenize.NAME and prev not in ("def", "class"):
                    used.add(tok.string)
                    if prev == ".":
                        attributes.add(tok.string)
                prev = tok.string
    assert sorted(set(spinsim.__all__) - used) == []
    members = {f"{name}.{member}" for name in spinsim.__all__
               if isinstance(getattr(spinsim, name), type)
               for member in public_members(getattr(spinsim, name))}
    assert members  # the classes do have public members
    assert sorted(m for m in members if m.split(".")[1] not in attributes) == []


def test_only_ir_reads_the_circuit_header():
    """``ir.Circuit`` reads and checks the header; every other module reads its
    typed fields.  A read is a NAME token ``metadata`` in a src/spinsim module."""
    readers = []
    for path in sorted((SRC / "spinsim").glob("*.py")):
        with tokenize.open(path) as f:
            if any(tok.type == tokenize.NAME and tok.string == "metadata"
                   for tok in tokenize.generate_tokens(f.readline)):
                readers.append(path.name)
    assert readers == ["ir.py"]


def test_no_module_imports_dataclasses():
    """The records are checked namedtuples: importing ``dataclasses`` would
    load ``inspect`` and a dozen more modules at every command's start.  A
    use is a NAME token ``dataclasses`` in a src/spinsim module."""
    users = []
    for path in sorted((SRC / "spinsim").glob("*.py")):
        with tokenize.open(path) as f:
            if any(tok.type == tokenize.NAME and tok.string == "dataclasses"
                   for tok in tokenize.generate_tokens(f.readline)):
                users.append(path.name)
    assert users == []


def test_schedule_starts_without_dataclasses_inspect_or_numpy(tmp_path):
    proc = run_fresh(
        "import sys\n"
        "from spinsim.cli import main\n"
        "assert main(['schedule', '--protocol', 'ising', '--n-steps', '3',\n"
        "             '--thetas', '1.1']) == 0\n"
        "print(sorted({'dataclasses', 'inspect', 'numpy'} & set(sys.modules)))\n",
        tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


EMPTY = inspect.Parameter.empty
_EVENT = PulseEvent("drive-Q1", 0.0, 24.0, "rot_x", 0)

# each checked record: its constructor's parameters as (name, default) in
# order, one valid record, a change of fields that its checks refuse, and
# the error they raise
RECORDS = [
    pytest.param(EvolutionParams, [("theta", EMPTY), ("n_steps", 1), ("b_over_j", 0.0)],
                 EvolutionParams(1.0, 3, 2.0), {"n_steps": 0}, ValueError,
                 id="EvolutionParams"),
    pytest.param(TimingParams, [("single_qubit_ns", 24.0), ("buffer_ns", 16.0),
                                ("post_flux_wait_ns", 40.0), ("detuning_mhz", 200.0),
                                ("theta_to_ns", 1e3 / (4.0 * math.pi * 40.4))],
                 TimingParams(), {"buffer_ns": -1.0}, ValueError, id="TimingParams"),
    pytest.param(NoiseParams, [("t1_us", (7.1, 6.7)), ("t2_us", (5.4, 4.9)),
                               ("jz_tilde_angle_deg", -2.3), ("crosstalk_phase_deg", -4.6),
                               ("single_qubit_fidelity", 0.997), ("timing", TimingParams())],
                 NoiseParams(), {"single_qubit_fidelity": 0.4}, ValueError,
                 id="NoiseParams"),
    pytest.param(PulseTimeline, [("events", EMPTY), ("total_ns", EMPTY)],
                 PulseTimeline((_EVENT,), 24.0), {"events": [_EVENT]}, TypeError,
                 id="PulseTimeline"),
    pytest.param(RunConfig, [("protocol", "xy"),
                             ("theta_grid", tuple(k * math.pi / 16.0 for k in range(33))),
                             ("n_steps", 1), ("n_list", (1, 2, 3, 4, 5)), ("b_over_j", 3.0),
                             ("initial_state", None), ("noise", NoiseParams()),
                             ("j_sign", -1)],
                 RunConfig(protocol="ising", theta_grid=(0.5, 1.0), n_steps=2),
                 {"protocol": "swap"}, ConfigError, id="RunConfig"),
    pytest.param(SpinModelSpec, [("jx", 1.0), ("jy", 0.0), ("jz", 0.0), ("b", 0.0),
                                 ("j_sign", -1)],
                 SpinModelSpec.ising(1.0, 2.0), {"j_sign": 0}, ValueError,
                 id="SpinModelSpec"),
    pytest.param(TomographyRecord, [("labels", EMPTY), ("expectations", EMPTY),
                                    ("noise_sigma", 0.0)],
                 TomographyRecord(("XX", "ZZ"), (0.5, -1.0)), {"expectations": (0.5, 2.0)},
                 ValueError, id="TomographyRecord"),
]


@pytest.mark.parametrize("cls, params, valid, change, error", RECORDS)
def test_record_signature(cls, params, valid, change, error):
    # hypothesis's st.builds reads this signature to choose what to draw
    sig = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in sig] == params
    assert [type(p.default) for p in sig] == [type(d) for _, d in params]
    assert {p.kind for p in sig} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


@pytest.mark.parametrize("cls, params, valid, change, error", RECORDS)
def test_every_way_of_building_a_record_checks(cls, params, valid, change, error):
    fields = {**valid._asdict(), **change}
    unchecked = tuple.__new__(cls, fields.values())  # skips the checks
    builds = [lambda: cls(*fields.values()), lambda: cls(**fields),
              lambda: cls._make(fields.values()), lambda: valid._replace(**change),
              lambda: copy.deepcopy(unchecked), lambda: copy.copy(unchecked)]
    builds += [lambda p=p: pickle.loads(pickle.dumps(unchecked, p))
               for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for build in builds:
        with pytest.raises(error):
            build()
    for same in (valid._replace(), cls._make(valid), copy.deepcopy(valid),
                 pickle.loads(pickle.dumps(valid))):
        assert same == valid and type(same) is cls
    # a record is a tuple: it equals the plain tuple of its fields, and it is
    # read-only
    assert valid == tuple(valid)
    for name in valid._fields:
        with pytest.raises(AttributeError):
            setattr(valid, name, None)
    with pytest.raises(AttributeError):
        valid.extra = 1


def test_star_import():
    namespace: dict = {}
    exec("from spinsim import *", namespace)
    assert set(spinsim.__all__) <= set(namespace)


@pytest.mark.parametrize("module", [spinsim, spinsim.cli])
def test_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")


def test_one_timing_class():
    # the noise charge and the scheduler read the same timing model
    assert spinsim.TimingParams is spinsim.noise.TimingParams
    assert spinsim.TimingParams is spinsim.scheduler.TimingParams


def test_submodules_resolve_after_bare_import(tmp_path):
    proc = run_fresh(
        "import spinsim\n"
        "assert spinsim.ir.Gate is spinsim.Gate\n"
        "assert spinsim.cli.main.__module__ == 'spinsim.cli'\n"
        "assert spinsim.noise.TimingParams is spinsim.scheduler.TimingParams\n",
        tmp_path)
    assert proc.returncode == 0, proc.stderr


# Each step runs in the same fresh interpreter and must leave numpy unloaded.
NUMPY_FREE = r"""
import json, sys
from pathlib import Path

def check(step):
    if "numpy" in sys.modules:
        sys.exit(f"{step} loaded numpy")

import spinsim.scheduler
check("import spinsim.scheduler")
import spinsim.cli
check("import spinsim.cli")
from spinsim.cli import main
Path("config.json").write_text(json.dumps({
    "n_steps": 3, "b_over_j": -2.0, "initial_state": [[0.6, 0.0], [0.0, 0.8], 0, 0],
    "noise": {"t1_us": [20, 30], "theta_to_ns": 2.5,
              "gate_durations": {"xy_buffer_ns": 10, "post_flux_wait_ns": 30}}}))
for protocol in ("xy", "heisenberg", "ising"):
    code = main(["schedule", "--config", "config.json", "--protocol", protocol,
                 "--thetas", "0.5,2.0", "--out", protocol])
    assert code == 0, (protocol, code)
    check(f"schedule --protocol {protocol}")
code = main(["schedule", "--config", "config.json", "--protocol", "ising",
             "--circuit-in", "ising/ising_theta001_circuit.txt", "--out", "again"])
assert code == 0, code
assert (Path("again/ising_input_timeline.csv").read_bytes()
        == Path("ising/ising_theta001_timeline.csv").read_bytes())
check("schedule --circuit-in")
try:
    main(["--help"])
except SystemExit as exc:
    assert exc.code == 0, exc.code
check("--help")
"""


def test_schedule_and_help_never_load_numpy(tmp_path):
    proc = run_fresh(NUMPY_FREE, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_python_m_spinsim_runs_the_cli(tmp_path):
    """``python -m spinsim`` in a fresh interpreter: --help exits 0, and a
    schedule writes the bytes of the in-process ``main``."""
    def module(*args):
        return subprocess.run([sys.executable, "-m", "spinsim", *args], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=120)

    helped = module("--help")
    assert helped.returncode == 0, helped.stderr
    assert helped.stdout.startswith("usage: spinsim ")
    argv = ["schedule", "--protocol", "ising", "--n-steps", "3", "--thetas", "1.1"]
    proc = module(*argv, "--out", "fresh")
    assert proc.returncode == 0, proc.stderr
    assert spinsim.cli.main([*argv, "--out", str(tmp_path / "in_process")]) == 0
    names = sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert names == ["ising_theta000_circuit.txt", "ising_theta000_timeline.csv"]
    assert names == sorted(p.name for p in (tmp_path / "in_process").iterdir())
    for name in names:
        assert ((tmp_path / "fresh" / name).read_bytes()
                == (tmp_path / "in_process" / name).read_bytes())


def test_fresh_interpreter_simulate_writes_in_process_bytes(tmp_path):
    argv = ["simulate", "--protocol", "ising", "--n-steps", "2",
            "--thetas", "0.5,1.5", "--initial-state", "bell"]
    proc = run_fresh("import sys\nfrom spinsim.cli import main\n"
                     f"sys.exit(main({argv + ['--out', 'fresh']!r}))", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert spinsim.cli.main([*argv, "--out", str(tmp_path / "in_process")]) == 0
    name = "ising_dynamics.csv"
    assert ((tmp_path / "fresh" / name).read_bytes()
            == (tmp_path / "in_process" / name).read_bytes())
