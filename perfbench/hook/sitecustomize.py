"""Loads the benchmark's span wrappers into every Python process of a
traced run (the ``repro serve`` server, spawned build workers).

The traced run puts this directory on ``PYTHONPATH`` and names the span
output directory in ``PERFBENCH_TRACE_DIR``; without that variable the
module does nothing.
"""

import os
import sys

if os.environ.get("PERFBENCH_TRACE_DIR"):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import tracing

    tracing.install_from_env()
