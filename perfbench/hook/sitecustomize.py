"""Interpreter start-up hook for the benchmark's traced server runs.

This directory is put on ``PYTHONPATH`` only for a traced server, so
the server process and every fleet worker it spawns import this module
at start-up and install the span wrappers from ``gpuscale_trace``.
"""

import gpuscale_trace

gpuscale_trace.install_from_environment()
