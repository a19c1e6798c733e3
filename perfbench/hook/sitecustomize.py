"""Interpreter start-up hook of the benchmark's traced run.

``perfbench/run.py --trace 1`` puts this directory on ``PYTHONPATH`` and
names an output directory in ``PERFBENCH_TRACE_DIR``, so every Python
process of the traced sample — the driving process and each worker it
spawns — installs the span tracer before it runs any benchmark code.
Without that variable this hook does nothing.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import pbtrace

    pbtrace.start(os.environ["PERFBENCH_TRACE_DIR"])
