"""Run one relci command line with the tracer installed.

    python traced_cli.py TRACE_FILE relci-args...

Used by the traced run of ``cli_cold``: the child writes its counts and
times to TRACE_FILE as JSON and exits with relci's exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return sys.modules["relci.cli"].main(argv)
    finally:
        Path(trace_file).write_text(json.dumps(tracer.snapshot()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
