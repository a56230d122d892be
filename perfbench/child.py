"""Run one swingbench CLI command in this interpreter, untraced, and record
how long importing ``swingbench.cli`` and running the command took.

Usage: python3 child.py TIMING_JSON CLI_ARG...
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    timing_path, argv = Path(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    from swingbench import cli

    imported = time.perf_counter()
    code = cli.main(argv)
    done = time.perf_counter()
    timing_path.write_text(
        json.dumps({"import_s": imported - start, "main_s": done - imported}), encoding="utf-8"
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
