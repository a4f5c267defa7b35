import importlib
import os
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
    none of them uses.  A use is a NAME token in src/spinsim (the export table
    in ``__init__`` aside) or in tests/test_acceptance.py that is not the name
    of a def or class.
    """
    files = [p for p in (SRC / "spinsim").glob("*.py") if p.name != "__init__.py"]
    files.append(Path(__file__).with_name("test_acceptance.py"))
    used = set()
    for path in files:
        with tokenize.open(path) as f:
            prev = ""
            for tok in tokenize.generate_tokens(f.readline):
                if tok.type == tokenize.NAME and prev not in ("def", "class"):
                    used.add(tok.string)
                prev = tok.string
    assert sorted(set(spinsim.__all__) - used) == []
    members = {f"{name}.{member}" for name in spinsim.__all__
               if isinstance(getattr(spinsim, name), type)
               for member in public_members(getattr(spinsim, name))}
    assert members  # the classes do have public members
    assert sorted(m for m in members if m.split(".")[1] not in used) == []


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
