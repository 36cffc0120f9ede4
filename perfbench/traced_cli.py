"""Run `markoffquads.cli.main(argv)` in a fresh interpreter with spans on.

Usage: python3 perfbench/traced_cli.py <mql argv...>

stdout and the exit code are the CLI's own.  After the call, one line
`perfbench-trace <json>` on stderr carries the spans, counters and walk
sizes.  Span times come from time.perf_counter (CLOCK_MONOTONIC on
Linux), so the parent process can nest them under the span it keeps for
the whole interpreter.
"""

import json
import sys

import tracing

MARKER = "perfbench-trace "


def main(argv) -> int:
    tr = tracing.Tracer()
    tr.call_id = 0
    span = tr.open("import.markoffquads.cli")
    import markoffquads.cli as cli
    tr.close(span)
    tr.install()
    span = tr.open("cli.main")
    try:
        rc = cli.main(argv)
    finally:
        tr.close(span)
        sys.stdout.flush()
        payload = {"spans": tr.spans, "counts": tr.counts, "walks": tr.walks.get(0, [])}
        sys.stderr.write(MARKER + json.dumps(payload, separators=(",", ":")) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
