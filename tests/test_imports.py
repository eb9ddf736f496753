"""What each entry point loads: `import edgekit` loads no submodule and no numpy,
and each CLI command loads only the modules it runs."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgekit

SRC = Path(edgekit.__file__).resolve().parents[1]

# the replicate engine with its process pool, and the modules that only Monte Carlo commands run
_MONTE_CARLO = {"edgekit.ensemble", "edgekit.green", "edgekit.flow", "edgekit.detect",
                "concurrent.futures.process", "multiprocessing"}


def _loaded(args: list, cwd: Path) -> set:
    """The modules that `python -X importtime *args` imports, by name, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_import_edgekit_loads_nothing(tmp_path):
    loaded = _loaded(["-c", "import edgekit"], tmp_path)
    assert "edgekit" in loaded
    assert not {m for m in loaded if m.startswith("edgekit.")}
    assert "numpy" not in loaded


def test_density_loads_only_its_solver(tmp_path):
    loaded = _loaded(["-m", "edgekit.cli", "density", "--spectrum", "uniform:lo=0.5,hi=2,M=40,N=40",
                      "--emin", "0", "--emax", "8", "--points", "50", "--out", "out"], tmp_path)
    assert {"edgekit.population", "edgekit.stieltjes"} <= loaded
    assert not loaded & (_MONTE_CARLO | {"edgekit.tracy_widom"})
    assert (tmp_path / "out" / "density.csv").is_file()


def test_tw_table_loads_no_replicate_engine(tmp_path):
    loaded = _loaded(["-m", "edgekit.cli", "tw-table", "--smin", "-4", "--smax", "2",
                      "--out", "out"], tmp_path)
    assert "edgekit.tracy_widom" in loaded
    assert not loaded & {"edgekit.ensemble", "edgekit.green"}


def test_every_lazy_name_resolves():
    names = edgekit._MODULE_OF
    assert set(names) <= set(dir(edgekit))
    for name, module in names.items():
        owner = importlib.import_module(f"edgekit.{module}")
        assert getattr(edgekit, name) is (owner if name == module else getattr(owner, name))
    assert sorted(names) == edgekit.__all__
    with pytest.raises(AttributeError, match="no_such_name"):
        edgekit.no_such_name
