"""Set-up time in a fresh interpreter: import spinsim, then one-circuit CLI calls.

Usage: python3 setup_probe.py SRC_DIR ARGV_JSON

ARGV_JSON is a JSON list of ``spinsim`` argument lists. Prints one JSON
object with the elapsed seconds and each call's exit code.
"""

import json
import sys
import time


def main() -> int:
    src, calls = sys.argv[1], json.loads(sys.argv[2])
    start = time.perf_counter()
    sys.path.insert(0, src)
    from spinsim.cli import main as spinsim_main  # imports the whole package
    codes = [spinsim_main(argv) for argv in calls]
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "exit_codes": codes}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
