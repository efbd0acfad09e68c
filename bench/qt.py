"""`python -m quivermoduli.cli ARGS...` under a speed.Speedometer.

    python3 bench/qt.py verdict problem.json

Runs the command-line module as __main__, exactly as `-m` would, with
SIGPROF bursts sampling the speed of the CPU.  At exit it writes one
line to stderr, SPEED_PREFIX and the bursts' summary as JSON, which
run.py strips before it looks at the command's own output.
"""

from __future__ import annotations

import json
import runpy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import speed  # noqa: E402

SPEED_PREFIX = "#speed "


def main() -> int:
    sp = speed.Speedometer()
    sp.start()
    sys.argv = ["quivermoduli.cli", *sys.argv[1:]]
    code = 0
    try:
        runpy.run_module("quivermoduli.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        sp.stop()
        sys.stdout.flush()
        sys.stderr.write("\n" + SPEED_PREFIX + json.dumps(sp.summary()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
