"""CI: a two-worker CCSD through ``run_parallel`` twice, leak-free.

Run as ``python -W error scripts/ci_session_smoke.py`` so that any
warning -- a ``ResourceWarning``, a ``resource_tracker`` complaint
raised in this process -- is an error; the workflow step then fails if
stderr mentions ``resource_tracker`` (the tracker is its own process and
complains on *its* stderr at shutdown) or if ``/dev/shm`` still holds a
segment of the pool.  Prints the segment names it checked.
"""

import os

import numpy as np

from repro.chem.workloads import ccsd_doubles_program
from repro.engine.executor import random_inputs
from repro.parallel.grid import ProcessorGrid
from repro.pipeline import SynthesisConfig, synthesize
from repro.runtime.process import SpmdProcessPool


def main() -> None:
    prog = ccsd_doubles_program(V=6, O=3)
    res = synthesize(prog, SynthesisConfig(grid=ProcessorGrid((2,))))
    inputs = random_inputs(prog, seed=0)
    local = res.run_parallel(dict(inputs))
    with SpmdProcessPool(2) as pool:
        for _ in range(2):
            out = res.run_parallel(
                dict(inputs), backend="process", transport="shm", pool=pool
            )
            if not np.array_equal(out["R"], local["R"]):
                raise SystemExit("process backend differs from local")
        names = [
            arena.name.lstrip("/")
            for port in pool._workers
            for arena in (port.down, port.up)
        ]
    left = [n for n in names if os.path.exists(os.path.join("/dev/shm", n))]
    if len(names) != 4 or left:
        raise SystemExit(f"arenas {names}: still in /dev/shm: {left}")
    print("checked", " ".join(names))


if __name__ == "__main__":
    main()
