"""Set-up of one workload in a fresh interpreter: import graphzeta, then
parse and validate the workload's graph documents for the seed's first pass.

    python3 perfbench/setup_probe.py <workload> <seed>

run.py times this whole process, interpreter start included.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import graphzeta  # noqa: E402
from pool import POOL, graphs_of, passes, scale_doc  # noqa: E402

workload, seed = sys.argv[1], int(sys.argv[2])
scales, _ = next(passes(workload, seed))
for name in graphs_of(workload):
    graphzeta.parse_graph(json.dumps(scale_doc(POOL[name], scales[name])))
