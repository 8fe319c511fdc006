"""Set-up probe: build one workload in a fresh interpreter, then say ``ready``.

``run.py`` times this process from spawn to the ``ready`` line; that is the
set-up a user pays before the first item (interpreter start, ``import sqw``
or ``import sqw.cli``, input generation).

Usage: python3 bench/probe.py <workload> <seed>
"""

import sys

import workloads

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print("ready", flush=True)
