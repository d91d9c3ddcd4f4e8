"""Pin the sha256 of every job's output, for every variant, in expected.json.

    python3 perfbench/pin.py

Runs each case of each workload once per variant, checks exit code, failing
check or error name and check count against the known answers, and writes
the output digests.  Run it only on a commit whose outputs are trusted: the
benchmark then treats any other output as wrong.
"""

import json
import os
import sys

import gauge
import run
import workloads


def main():
    sys.path.insert(0, run.SRC)
    tb = run.import_package()
    clock = gauge.Gauge()
    pinned, wrong = {}, []
    for workload, cases in workloads.WORKLOADS.items():
        for case in cases:
            for v in range(workloads.VARIANTS if case.family else 1):
                text = workloads.input_text(tb, case, v)
                results = run.run_pass([(case, v, text)], tb.cli.main, clock)
                for _, _, command, rc, out, err, *_ in results:
                    key = workloads.job_key(workload, case, command, v)
                    got = workloads.verdict(command, rc, out, err)
                    pinned[key] = got.digest
                    why = workloads.mismatch(key, case, command, got, pinned)
                    if why:
                        wrong.append(f"{key}: {why}")
                print(f"{workload} | {case.label} | v{v}", file=sys.stderr)
    if wrong:
        print("\n".join(wrong), file=sys.stderr)
        return 1
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
