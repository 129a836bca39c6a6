"""Set-up of one workload's first op, in a fresh interpreter.

    python3 perfbench/setup_child.py SRC_DIR CLI_ARGV...

Imports diskflow from SRC_DIR and calls ``diskflow.cli.main(CLI_ARGV)``, so
set-up follows the program's own path: argument and config parsing, grid,
initial data, any reference state, and the first FlowState on an empty
factor cache.  ``dynamics.run`` looks ``step`` up as a module global; the
first call to it prints ``setup_done <time.monotonic()>`` and ends the
process with exit 0.  The parent subtracts the monotonic time it took just
before starting this process.  Exit 1 when the op ends without a step.
"""

import os
import sys
import time

sys.path.insert(0, sys.argv[1])

import diskflow.cli  # noqa: E402
import diskflow.dynamics  # noqa: E402


def _first_step(*args, **kwargs):
    now = time.monotonic()
    sys.stdout.write("setup_done %r\n" % now)
    sys.stdout.flush()
    os._exit(0)


diskflow.dynamics.step = _first_step
code = diskflow.cli.main(sys.argv[2:])
print("set-up child: the op ended (exit %r) before its first step" % code,
      file=sys.stderr)
sys.exit(1)
