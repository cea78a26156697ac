"""Time one cold set-up of a workload in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR``.
Measures importing ``repro``, listing its registries and the first
tiny call of the workload's entry point, and prints
``{"setup_s": <seconds>}``.  The benchmark runs it several times per
run and reports the median.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time


def main(argv) -> int:
    workload_name, seed, workdir = argv[1], int(argv[2]), argv[3]
    here = pathlib.Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    from workloads import WORKLOADS, Context

    workload = WORKLOADS[workload_name]()
    ctx = Context(workdir=pathlib.Path(workdir), seed=seed)
    started = time.perf_counter()
    import repro

    repro.governor_names()
    repro.panel_preset_names()
    repro.APPS.names()
    workload.tiny(ctx)
    elapsed = time.perf_counter() - started
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
