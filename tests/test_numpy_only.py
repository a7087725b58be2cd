"""Every operation runs on numpy alone: the library calls and the CLI
commands succeed in a fresh interpreter in which scipy cannot be
imported.

Each check runs in a fresh interpreter, because the test process itself
has scipy loaded (pytest's warning filters import scipy.integrate, and
the tests use it as a reference).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# the interval with a bump of the benchmark pool
BUMP_INTERVAL = {
    "vertices": 2,
    "bonds": [{"id": 1, "origin": 1, "terminus": 2, "length": 1.0,
               "potential": {"kind": "bump", "center": 0.5,
                             "half_width": 0.3, "height": 0.3}}],
    "matching": {"mode": "per_vertex", "vertices": [
        {"vertex": 1, "kind": "dirichlet"},
        {"vertex": 2, "kind": "dirichlet"}]},
}

# set before graphzeta is imported: an import of scipy, or of any of its
# submodules, then raises ImportError
NO_SCIPY = 'import sys\nsys.modules["scipy"] = None\n'

LIBRARY = NO_SCIPY + """
import graphzeta as gz
graph, mc = gz.load_graph(sys.argv[1], validate=False)
assert gz.validate_matching(graph, mc).passed
assert gz.scan_spectrum(graph, mc, 20.0).count == 6
gz.zeta_total(graph, mc, 0.75, 0.5)
gz.zeta_total(graph, mc, complex(0.3, 0.2))
gz.vacuum_energy(graph, mc)
gz.casimir_force(graph, mc, 1)
window = gz.scan_spectrum(graph, mc, 60.0)
gz.zeta_direct(window, 0.75)
gz.zeta_direct(window, complex(0.75, 0.5), 0.5)
gz.energy_finite_difference(graph, mc, 1)
"""

CLI = NO_SCIPY + """
from graphzeta.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_fresh(code, *args):
    """Run code in a fresh interpreter, which must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture
def graph_path(tmp_path):
    path = tmp_path / "bump.json"
    path.write_text(json.dumps(BUMP_INTERVAL))
    return str(path)


def test_library_operations_load_no_scipy(graph_path):
    run_fresh(LIBRARY, graph_path)


@pytest.mark.parametrize("argv", [
    ["validate"], ["spectrum", "--k-max", "20"], ["zeta", "--s", "0.75"],
    ["energy"], ["force", "--bond", "1"]], ids=lambda a: a[0])
def test_cli_commands_load_no_scipy(graph_path, argv):
    run_fresh(CLI, argv[0], "--graph", graph_path, *argv[1:])
