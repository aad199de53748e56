"""The command line that starts a child Python under this run's flags.

A test that runs a script or ``-m inhomspec`` in a subprocess starts the
child with the running interpreter's -O, -X dev and -W options, so a run
such as ``python -O -X dev -W error -m pytest`` checks the child's code
under them too.
"""

import sys


def python_command() -> list[str]:
    """sys.executable, then -O once per sys.flags.optimize, -X dev in dev
    mode and -W<opt> for each entry of sys.warnoptions."""
    cmd = [sys.executable] + ["-O"] * sys.flags.optimize
    if sys.flags.dev_mode:
        cmd += ["-X", "dev"]
    return cmd + [f"-W{opt}" for opt in sys.warnoptions]
