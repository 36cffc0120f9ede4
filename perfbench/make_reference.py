"""Regenerate reference.json from this checkout's program output.

Usage: python3 perfbench/make_reference.py

Runs one checked pass of every workload for each of the
workloads.REFERENCE_SEEDS input variants, in-process, and stores
`checks.reference_values` for every call under a key derived from its
argv.  Run it only when the program's documented output is meant to
change.
"""

import json
import sys

import checks
import run
import workloads


def main() -> int:
    runner = run.InProcess()
    reference, failures = {}, 0
    for seed in range(workloads.REFERENCE_SEEDS):
        for name in workloads.WORKLOADS:
            for call in workloads.build(name, seed):
                rc, out, err, _ = runner.run(call)
                try:
                    checks.check_call(call, rc, out, None)
                except checks.CheckError as e:
                    failures += 1
                    print(f"seed {seed} {name}: {' '.join(call.argv)[:100]}: {e} {err[-200:]}")
                    continue
                values = checks.reference_values(call, checks.parse_lines(out))
                if values:
                    reference[checks.reference_key(call)] = values
        print(f"seed {seed}: {len(reference)} references", flush=True)
    if failures:
        print(f"{failures} calls failed their checks; reference.json not written")
        return 1
    checks.REFERENCE_PATH.write_text(
        json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
