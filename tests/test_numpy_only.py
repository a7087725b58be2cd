"""The five operations run on numpy alone: no scipy module is loaded.

Each check runs in a fresh interpreter, because the test process itself
has scipy loaded (pytest's warning filters import scipy.integrate).
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

LOADED = ("print(json.dumps(sorted(m for m in sys.modules "
          "if m.split('.')[0] == 'scipy')))")

LIBRARY = f"""
import json, sys
import graphzeta as gz
graph, mc = gz.load_graph(sys.argv[1], validate=False)
assert gz.validate_matching(graph, mc).passed
assert gz.scan_spectrum(graph, mc, 20.0).count == 6
gz.zeta_total(graph, mc, 0.75, 0.5)
gz.zeta_total(graph, mc, complex(0.3, 0.2))
gz.vacuum_energy(graph, mc)
gz.casimir_force(graph, mc, 1)
{LOADED}
"""

CLI = f"""
import json, sys
from graphzeta.cli import main
code = main(sys.argv[1:])
print()
{LOADED}
sys.exit(code)
"""


def run_fresh(code, *args):
    """(exit code, scipy modules loaded) of code in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return proc.returncode, json.loads(lines[-1])


@pytest.fixture
def graph_path(tmp_path):
    path = tmp_path / "bump.json"
    path.write_text(json.dumps(BUMP_INTERVAL))
    return str(path)


def test_library_operations_load_no_scipy(graph_path):
    code, loaded = run_fresh(LIBRARY, graph_path)
    assert code == 0
    assert loaded == []


@pytest.mark.parametrize("argv", [
    ["validate"], ["spectrum", "--k-max", "20"], ["zeta", "--s", "0.75"],
    ["energy"], ["force", "--bond", "1"]], ids=lambda a: a[0])
def test_cli_commands_load_no_scipy(graph_path, argv):
    code, loaded = run_fresh(CLI, argv[0], "--graph", graph_path, *argv[1:])
    assert code == 0
    assert loaded == []
