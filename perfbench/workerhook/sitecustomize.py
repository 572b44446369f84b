"""Start-up hook that traces the benchmark's distributed workers from outside.

A traced benchmark experiment puts this directory on ``PYTHONPATH`` and names
an output directory in ``PERFBENCH_WORKER_TRACE`` before the coordinator
spawns its workers; the workers inherit both, so Python imports this module
at start-up and the same wrappers the driver uses time the worker's layers.
Any other interpreter that finds this module does nothing.
"""

import os

if os.environ.get("PERFBENCH_WORKER_TRACE"):
    import sys

    sys.path.append(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
    from perfbench import spans

    spans.install_worker(os.environ["PERFBENCH_WORKER_TRACE"])
