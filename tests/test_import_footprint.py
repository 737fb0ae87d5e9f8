"""Each subcommand loads only the layers it runs, and none loads `dataclasses`.

`verify` spreads its jobs over forked helpers with `os.fork`, pipes and
`marshal`, so it loads no process pool, thread or pickling module either.

Every command runs in a fresh interpreter that reports the `qtsetlin`
modules in `sys.modules` when `main` returns.  A layer that a command
loads without running it costs every run of that command its compile and
import time.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qtsetlin

ENV = dict(os.environ, PYTHONPATH=str(Path(qtsetlin.__file__).resolve().parents[1]))
PRINT = 'print("\\n" + " ".join(sys.modules))'
RUN = "import sys\nfrom qtsetlin.cli import main\nmain(sys.argv[1:])\n" + PRINT
BASE = {"cli", "combinatorics", "exact", "hecke_chains"}

# argv -> every qtsetlin module it loads besides the package itself.
FOOTPRINT = {
    "matrix --space perm --n 3 --q 2 --rates 1/2,1/3,1/6": BASE,
    "matrix --space word --m 1,2 --q 2 --rates 1/2,1/2": BASE,
    # Rates sampled from --seed come from the rates' own layer.
    "matrix --space perm --n 3 --q 2": BASE,
    "matrix --space word --m 1,2 --q 2 --seed 3": BASE,
    "matrix --space flag --n 2 --p 2 --rates 1/2,1/2": BASE | {"flags"},
    "stationary --space perm --n 3 --q 2 --rates 1/2,1/3,1/6": BASE | {"stationary"},
    "stationary --space word --m 1,2 --q 2 --rates 1/2,1/2 --method all": BASE | {"stationary"},
    "stationary --space flag --n 2 --p 2 --rates 1/2,1/2": BASE | {"flags", "stationary"},
    "stationary --space flag --n 2 --p 2 --rates 1/2,1/2 --method semigroup": BASE | {"flags", "stationary"},
    "spectrum --space perm --n 3 --q 2 --rates 1/2,1/3,1/6 --verify": BASE | {"spectra"},
    "spectrum --space flag --n 2 --p 2 --rates 1/2,1/2 --verify": BASE | {"flags", "spectra"},
    "lump-check --m 1,2 --q 2 --rates 1/2,1/2": BASE | {"lumping"},
    "lump-check --n 2 --p 2 --rates 1/2,1/2": BASE | {"flags", "lumping"},
    "verify --suite matrix": BASE | {"flags", "lumping", "spectra", "stationary", "suites"},
    "verify --suite all --n-max 3 --p 2": BASE | {"flags", "lumping", "spectra", "stationary", "suites"},
}
POOLS = {"multiprocessing", "concurrent.futures", "threading", "pickle", "subprocess"}


def modules_after(code, *argv):
    """The names in sys.modules when `code` has run on argv."""
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.fixture(scope="module")
def stdlib():
    """What the standard modules the CLI needs load on this interpreter."""
    return modules_after("import argparse, fractions, json, sys\n" + PRINT)


@pytest.mark.parametrize("argv", FOOTPRINT)
def test_command_loads_only_the_layers_it_runs(argv, stdlib):
    modules = modules_after(RUN, *argv.split())
    assert {m.split(".", 1)[1] for m in modules if m.startswith("qtsetlin.")} == FOOTPRINT[argv]
    assert "dataclasses" not in modules - stdlib


@pytest.mark.parametrize("argv", [a for a in FOOTPRINT if a.startswith("verify")])
def test_verify_loads_no_pool_thread_or_pickle(argv, stdlib):
    modules = modules_after(RUN, *argv.split())
    assert POOLS & (modules - stdlib) == set()
