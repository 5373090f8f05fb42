"""Time one set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Prints one JSON line with ``import_s`` (importing sphrad) and ``build_s``
(building the dispatch problem, or the sweep fixtures and their models).
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(workload, seed):
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    if workload == "energy_dispatch":
        from sphrad import energy
    else:
        import sphrad.cli  # noqa: F401  (the sweeps call the command line)
        import sphrad as sp
    t1 = time.perf_counter()
    if workload == "energy_dispatch":
        energy.make_energy_problem(energy.EnergyParams(), validate_seed=1000 + seed)
    else:
        import numpy as np
        for m in (2, 8):
            e1 = np.eye(m)[0]
            sp.build_model(np.zeros(m), np.eye(m))
            if workload == "estimate_sweep":
                sp.make_halfspace(e1)
                sp.make_slab(e1, lambda x: x[0], lambda x: np.array([1.0]))
            else:
                sp.make_ball(np.zeros(m), z_dim=m)
        if workload == "estimate_sweep":
            sp.make_hyperbolic_system()
        else:
            sp.make_hyperbolic_set()
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
