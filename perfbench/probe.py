"""Run one scramblescope CLI command in this process and record its timing.

    python3 perfbench/probe.py SRC_DIR RECORD_JSON {plain|trace} -- CLI_ARGS...

Imports `scramblescope.cli` from SRC_DIR, runs `cli.main(CLI_ARGS)` and
writes RECORD_JSON when the command has ended. In `plain` mode only
`cli.parse_config` is wrapped, to timestamp the end of set-up; in `trace`
mode every binding in tracer.BINDINGS is wrapped. Exits with the CLI's
exit code. Times are time.monotonic() readings, comparable across processes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from tracer import BINDINGS, PARSE_BINDING, Tracer


def main() -> int:
    src, record_path, mode, sep, *cli_args = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "trace"):
        raise SystemExit(__doc__)
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import_start = time.monotonic()
    import scramblescope.cli as cli

    import_end = time.monotonic()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"scramblescope was imported from {cli.__file__}, not from {src}")
    tracer = Tracer()
    tracer.install(BINDINGS if mode == "trace" else (PARSE_BINDING,))
    code = cli.main(cli_args)
    record = tracer.record()
    record.update(import_start=import_start, import_end=import_end, exit_code=code)
    Path(record_path).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
