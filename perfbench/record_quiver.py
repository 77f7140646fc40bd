"""Record the quiver answers the checks compare against.

    python3 perfbench/record_quiver.py

Runs every quiver problem of the quiver-enum and quiver-certify workloads
at seed 0 and writes perfbench/expected_quiver.json: per problem the
number of translation classes, the number of candidates, and the status of
each candidate cover.  The checks accept a CandidateOnly component turning
into a certified one, but no other change, so re-record only when the
enumerated classes are meant to change.
"""

from __future__ import annotations

import json
import sys

import run
import checks
import workloads


def main():
    run.load_cli()
    problems = (workloads.quiver_enum_problems(0, run.ROOT, {})
                + workloads.quiver_certify_problems(0, run.ROOT, {}))
    paths = run.write_problems(problems, run.WORK / "problems" / "record")
    out = {}
    for p in sorted(problems, key=lambda p: p.id):
        rc, text, dt = run.invoke(p, paths[p.id])
        if rc != 0:
            print("%s: exit code %s" % (p.id, rc), file=sys.stderr)
            return 1
        report = json.loads(text)
        out[p.id] = {
            "classes": report["classes_enumerated"],
            "candidates": report["counts"]["candidates"],
            "statuses": {checks.beta_key(c["beta"]): c["status"] for c in report["components"]},
        }
        print("%-20s %5d classes %4d candidates %.2f s" % (p.id, out[p.id]["classes"], out[p.id]["candidates"], dt))
    (run.BENCH_DIR / "expected_quiver.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
