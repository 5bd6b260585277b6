"""Run one fracfund CLI command as a benchmark child.

    python3 bench/launch.py SPEED.json SPANS.json|- [fracfund cli arguments]

Stands in for `python -m fracfund.cli` in the cli workload, with the same
PYTHONPATH; without CLI arguments it only imports fracfund.cli, as the
set-up of every workload does.  Untraced, it samples the reference kernel
while fracfund is imported and runs (see speed.py) and writes the timings
to SPEED.json; traced, it installs the same wrappers as the in-process
workloads and writes their spans to SPANS.json instead.  Both files are
written when the command ends, whatever its exit code.
"""

import json
import sys

from speed import PERIOD_S, STARTUP_PERIOD_S, Speedometer
from tracing import Tracer


def main():
    speed_path, spans, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracing = spans != "-"
    speed = Speedometer(None if tracing else
                        PERIOD_S if argv else STARTUP_PERIOD_S)
    try:
        with speed.running():
            import fracfund.cli
            if not argv:
                return 0
            if tracing:
                tracer = Tracer()
                tracer.install()
                tracer.begin(0)
            try:
                return fracfund.cli.main(argv)
            finally:
                if tracing:
                    tracer.end()
                    tracer.dump(spans)
    finally:
        with open(speed_path, "w", encoding="utf-8") as fh:
            json.dump({"samples": speed.samples, "paused": speed.paused}, fh)


if __name__ == "__main__":
    sys.exit(main())
