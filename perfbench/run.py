"""Benchmark of the fixedloci CLI.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is one of toric, queries, quiver-enum, quiver-certify, or `all`,
which runs the four in turn.  Each problem goes through
`fixedloci.cli.main` in this process: a closed loop with one client and one
thread, repeating passes over the workload's problems until S seconds have
passed and at least one whole pass is done.  Times are normalised to the
speed of a reference kernel sampled during the run (speed.py).
Every answer is checked.  With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it runs each problem untraced and then traced and
reports the per-layer metrics.  The last line of standard output is one JSON object;
the full result, with an environment stamp and the sha256 of each report,
goes to .perfbench/results/ in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench"
# keep every bytecode file this run writes inside the checkout
sys.pycache_prefix = str(WORK / "pycache")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 15

# what a fresh CLI process pays before it can read its first problem
SETUP_CODE = r"""
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import json
from importlib import resources
import jsonschema
import fixedloci.cli
for name in ("problem.schema.json", "report.schema.json"):
    schema = json.loads(resources.files("fixedloci.schemas").joinpath(name).read_text())
    jsonschema.Draft202012Validator.check_schema(schema)
    jsonschema.Draft202012Validator(schema).is_valid({})
print(repr(time.perf_counter() - t0))
"""


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or dependency)."""


def load_cli(root=ROOT):
    src = root / "src"
    if not (src / "fixedloci" / "cli.py").is_file():
        raise BenchError("no fixedloci sources under %s" % src)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import jsonschema
        import fixedloci.cli as cli
    except ImportError as exc:
        raise BenchError("cannot import: %s" % exc)
    if Path(cli.__file__).resolve().parent != (src / "fixedloci").resolve():
        raise BenchError("fixedloci imported from %s, not %s" % (cli.__file__, src))
    schema = json.loads((src / "fixedloci" / "schemas" / "report.schema.json").read_text())
    return cli, jsonschema.Draft202012Validator(schema)


def invoke(problem, path):
    """Run one problem through the CLI; (exit code, stdout, seconds)."""
    import fixedloci.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main([problem.command, str(path), *problem.args])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed answer, not a benchmark crash
            rc = "exception %r" % (exc,)
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), dt


def write_problems(problems, directory):
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for i, p in enumerate(problems):
        path = directory / ("%03d.json" % i)
        path.write_text(json.dumps(p.data, indent=1))
        paths[p.id] = path
    return paths


class Checker:
    """Checks each distinct report once; repeats are matched by sha256."""

    def __init__(self, problems, validator):
        self.problems = problems
        self.validator = validator
        self.verdicts = {}   # (problem id, sha256) -> failure messages
        self.shas = {}       # problem id -> sha256 of its latest report

    def check_pass(self, results):
        """Failure messages per problem id for one pass's (problem, rc, text)."""
        failures = {}
        for p, rc, text in results:
            sha = hashlib.sha256(text.encode()).hexdigest()
            self.shas[p.id] = sha
            key = (p.id, sha)
            if key not in self.verdicts:
                self.verdicts[key] = checks.check_report(p, rc, text, self.validator)
            if self.verdicts[key]:
                failures[p.id] = list(self.verdicts[key])
        checks.check_pairs(self.problems, {p.id: text for p, rc, text in results if rc == 0}, failures)
        return failures


def quiver_totals(results):
    """(candidates, CandidateOnly components) over a pass's quiver reports."""
    cands = unc = 0
    for p, rc, text in results:
        if p.command == "quiver" and rc == 0:
            counts = json.loads(text)["counts"]
            cands += counts["candidates"]
            unc += counts["candidate_only"]
    return cands, unc


def measure_setup(samples, root=ROOT):
    """(set-up seconds, kernel seconds) of `samples` fresh interpreters, after
    one unrecorded interpreter has filled the bytecode cache, as a user's
    installation has.  Two kernel samples are taken just before each."""
    if not samples:
        return []
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("FIXEDLOCI_THREADS", None)
    out = []
    for _ in range(samples + 1):
        kernel = [speed.sample(), speed.sample()]
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(root / "src")],
                              capture_output=True, text=True, env=env, timeout=120)
        if proc.returncode != 0:
            raise BenchError("set-up child failed: %s" % proc.stderr.strip()[-500:])
        out.append((float(proc.stdout.strip()), kernel))
    return out[1:]


def environment_stamp(seed, threads_removed, pinned_cpu):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": commit_id(),
        "seed": seed,
        "pinned_cpu": pinned_cpu,
        "FIXEDLOCI_THREADS": "unset" if threads_removed is None
        else "unset (was %r, removed for the run)" % threads_removed,
    }


def commit_id(root=ROOT):
    """HEAD's commit from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by statistics.quantiles' default method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# timed run (--trace 0)

def timed_run(problems, paths, checker, seconds, setup_samples):
    # before the passes, while this process's heap is still small
    setup = measure_setup(setup_samples)
    for p in workloads.warmup_problems(problems):
        invoke(p, write_problems([p], WORK / "warmup")[p.id])
    gauge = speed.Gauge()
    runs = {p.id: [] for p in problems}  # (start, end) of each run of a problem
    passes, failures_by_pass, unc = 0, [], None
    with gauge:
        t_start = time.perf_counter()
        while True:
            gc.collect()
            results = []
            for p in problems:
                # stop when time is up, but only after one whole pass
                if passes and time.perf_counter() - t_start >= seconds:
                    break
                t0 = time.perf_counter()
                rc, text, _ = invoke(p, paths[p.id])
                runs[p.id].append((t0, time.perf_counter()))
                results.append((p, rc, text))
            failures_by_pass.append(checker.check_pass(results))
            if len(results) < len(problems):
                break
            passes += 1
            if unc is None:
                unc = quiver_totals(results)
    # times without the kernel samples taken during them, then normalised to
    # the reference kernel's speed around them; see speed.py
    measured = {pid: [gauge.net(*t) for t in r] for pid, r in runs.items()}
    norm = {pid: [gauge.net(*t) * gauge.scale(*t) for t in r] for pid, r in runs.items()}
    pooled = [t for ts in norm.values() for t in ts]
    attempted = len(pooled)
    failed = sum(len(f) for f in failures_by_pass)
    cands, cand_only = unc
    metrics = {
        "setup_s": metric(statistics.median(t for t, _ in setup) * speed.REF_S
                          / statistics.fmean(k for _, ks in setup for k in ks), "s"),
        "wall_s": metric(sum(statistics.median(ts) for ts in norm.values()), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "certified_frac": metric(1 - cand_only / cands if cands else 1.0, "fraction"),
    }
    p90 = percentile(pooled, 90)
    detail = {
        # printed and recorded, but not in the JSON result (see README.md)
        "reported": {
            "solve_s.p50": metric(statistics.median(pooled), "s"),
            "solve_s.p90": metric(p90, "s"),
            "failed_frac": metric(failed / attempted, "fraction"),
            "uncertified_frac": metric(cand_only / cands if cands else 0.0, "fraction"),
        },
        # the same two times in measured, not normalised, seconds
        "measured": {
            "setup_s": metric(statistics.median(t for t, _ in setup), "s"),
            "wall_s": metric(sum(statistics.median(r) for r in measured.values()), "s"),
        },
        "solve_s.samples": len(pooled),
        "solve_s.beyond_p90": sum(1 for t in pooled if t > p90),
        "passes": passes,
        "kernel_s": gauge.samples,
        "kernel_start": gauge.starts,
        "runs": runs,
        "setup_samples_s": setup,
        "per_problem_s": norm,
        "failures": [f for f in failures_by_pass if f],
    }
    return attempted, failed, metrics, detail


# ---------------------------------------------------------------------------
# traced run (--trace 1)

# span groups reported with .calls and self time .s, and with .s only
CALL_GROUPS = ("simplex.lp", "linalg.elim", "linalg.normal_form", "cones.canon", "cones.dual",
               "cones.contains", "cones.project", "hmtorus.stable", "hmtorus.semistable",
               "hmtorus.kempf", "repfield.certify", "repfield.stable_rep", "grassmann.classify")
TIME_GROUPS = ("cli.main", "cli.load_problem", "cli.render", "toric.fan", "toric.fixed_points",
               "quiver.enumerate")

# ROADMAP reference points: (problem id, quantity) -> expected count
REFERENCE = {
    ("folded P1xP1xP1xP1xP1xP1", "stability tests in fixed_points_toric"): 65,
    ("folded P1xP1xP1xP1xP1xP1", "stability tests in quotient_fan"): 65,
    ("unfolded P1xP1xP1xP1", "stability tests in quotient_fan"): 257,
    ("unfolded P1xP1xP1xP1", "stability tests in fixed_points_toric"): 17,
    ("K3(3,4) window 2", "classes_enumerated"): 612,
    ("K3(3,4) window 2", "candidates"): 158,
    ("K3(3,4) window 2", "empty_verified"): 75,
    ("K3(3,4) window 2", "nonempty_verified"): 65,
    ("K3(3,4) window 2", "candidate_only"): 18,
    ("K3(2,3)", "candidates"): 19,
    ("K3(2,3)", "nonempty_verified"): 13,
    ("K3(2,3)", "empty_verified"): 6,
    ("kronecker3", "candidates"): 19,
    ("kronecker3", "nonempty_verified"): 13,
    ("kronecker3", "empty_verified"): 6,
}


def toric_tests(spans):
    """Stability tests issued through toric, per problem and enclosing function."""
    out = {}
    outer = {"toric.fan", "toric.fixed_points"}
    for i, s in enumerate(spans):
        if s[tracing.GROUP] == "hmtorus.stable" and s[tracing.SITE] == "fixedloci.toric":
            j = tracing.enclosing(spans, i, outer)
            where = {"toric.fan": "stability tests in quotient_fan",
                     "toric.fixed_points": "stability tests in fixed_points_toric"}.get(
                spans[j][tracing.GROUP] if j >= 0 else None, "stability tests elsewhere in toric")
            per = out.setdefault(s[tracing.PROBLEM], {})
            per[where] = per.get(where, 0) + 1
    return out


def layer_metrics(spans, results, wall_traced, wall_untraced):
    summary = tracing.summarize(spans)
    m = {}
    for g in CALL_GROUPS:
        m[g + ".calls"] = metric(summary[g]["calls"], "count")
        m[g + ".s"] = metric(summary[g]["self_s"], "s")
    for g in TIME_GROUPS:
        m[g + ".s"] = metric(summary[g]["self_s"], "s")
    lp, stable = summary["simplex.lp"], summary["hmtorus.stable"]
    m["simplex.lp.feasible_frac"] = metric(lp["outcomes"].get("True", 0) / lp["spans"] if lp["spans"] else 0.0,
                                           "fraction")
    m["hmtorus.stable.true_frac"] = metric(
        stable["outcomes"].get("True", 0) / stable["spans"] if stable["spans"] else 0.0, "fraction")
    m["hmtorus.limit_cone.calls"] = metric(summary["hmtorus.limit_cone"]["calls"], "count")

    reports = [(p, json.loads(text)) for p, rc, text in results if rc == 0]
    fixed = sum(r["counts"]["fixed_points"] for p, r in reports if p.command == "toric")
    tests = sum(n for per in toric_tests(spans).values() for n in per.values())
    m["toric.tests_per_fixed_point"] = metric(tests / fixed if fixed else 0.0, "ratio")

    classes = sum(r["classes_enumerated"] for p, r in reports if p.command == "quiver")
    cands = sum(r["counts"]["candidates"] for p, r in reports if p.command == "quiver")
    m["quiver.classes"] = metric(classes, "count")
    m["quiver.candidates"] = metric(cands, "count")
    enum_s = summary["quiver.enumerate"]["self_s"]
    m["quiver.enumerate.s_per_class"] = metric(enum_s / classes if classes else 0.0, "s")

    trials = summary["repfield.trial"]["spans"]
    certify = summary["repfield.certify"]
    m["repfield.trials"] = metric(trials, "count")
    m["repfield.witness_yield"] = metric(
        certify["outcomes"].get("NonemptyVerified", 0) / trials if trials else 0.0, "fraction")
    m["repfield.candidate_only.s"] = metric(
        sum(s[tracing.END] - s[tracing.START] for s in spans
            if s[tracing.GROUP] == "repfield.certify" and s[tracing.OUTCOME] == "CandidateOnly"), "s")

    for layer in tracing.LAYERS:
        m[layer + ".self_s"] = metric(
            sum(v["self_s"] for g, v in summary.items() if g.split(".")[0] == layer), "s")
    m["trace.wall_s"] = metric(wall_traced, "s")
    m["trace.overhead_s"] = metric(wall_traced - wall_untraced, "s")
    m["trace.spans"] = metric(len(spans), "count")
    return m


def reference_points(spans, results):
    observed = {}
    for pid, per in toric_tests(spans).items():
        for what, n in per.items():
            observed[(pid, what)] = n
    for p, rc, text in results:
        if p.command == "quiver" and rc == 0:
            r = json.loads(text)
            observed[(p.id, "classes_enumerated")] = r["classes_enumerated"]
            for k, v in r["counts"].items():
                observed[(p.id, k)] = v
    out = []
    for (pid, what), n in sorted(observed.items()):
        expected = REFERENCE.get((pid, what))
        out.append({"problem": pid, "quantity": what, "observed": n, "expected": expected,
                    "match": None if expected is None else n == expected})
    return out


def paired_pass(problems, paths):
    """One pass in which each problem runs untraced and then traced, back to
    back, so that both see the same machine speed and their difference is
    the tracing overhead.  Returns (untraced seconds, traced seconds, spans,
    untraced results, traced results)."""
    wall_u = wall_t = 0.0
    spans, results_u, results_t = [], [], []
    for p in problems:
        rc, text, dt = invoke(p, paths[p.id])
        wall_u += dt
        results_u.append((p, rc, text))
        with tracing.Tracer() as tracer:
            tracer.problem = p.id
            rc, text, dt = invoke(p, paths[p.id])
        wall_t += dt
        results_t.append((p, rc, text))
        base = len(spans)
        for s in tracer.spans:
            if s[tracing.PARENT] >= 0:
                s[tracing.PARENT] += base
            spans.append(s)
    return wall_u, wall_t, spans, results_u, results_t


def traced_run(problems, paths, checker, seconds, spans_path):
    for p in workloads.warmup_problems(problems):
        invoke(p, write_problems([p], WORK / "warmup")[p.id])
    rounds = []  # (untraced wall, traced wall, spans, results)
    failures, attempted = [], 0
    while True:
        gc.collect()
        wall_u, wall_t, spans, results_u, results_t = paired_pass(problems, paths)
        for results in (results_u, results_t):
            attempted += len(results)
            f = checker.check_pass(results)
            if f:
                failures.append(f)
        rounds.append((wall_u, wall_t, spans, results_t))
        if sum(u + t for u, t, _, _ in rounds) + statistics.median(u + t for u, t, _, _ in rounds) / 2 > seconds:
            break
    per_round = [layer_metrics(spans, results, wt, wu) for wu, wt, spans, results in rounds]
    metrics = {name: metric(statistics.median(r[name]["value"] for r in per_round), per_round[0][name]["unit"])
               for name in per_round[0]}
    spans_path.write_text(json.dumps(
        {"fields": ["group", "site", "start", "end", "parent", "problem", "outcome", "outermost"],
         "rounds": [spans for _, _, spans, _ in rounds]}, separators=(",", ":")))
    detail = {
        "rounds": len(rounds),
        "untraced_wall_s": [r[0] for r in rounds],
        "traced_wall_s": [r[1] for r in rounds],
        "reference": reference_points(rounds[0][2], rounds[0][3]),
        "toric_stability_tests": toric_tests(rounds[0][2]),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "failures": failures,
    }
    return attempted, sum(len(f) for f in failures), metrics, detail


# ---------------------------------------------------------------------------
# entry points

def run_workload(workload, seed, seconds, trace, small=False, setup_samples=SETUP_SAMPLES):
    """Run one workload; returns the result dict that run.py prints last."""
    threads = os.environ.pop("FIXEDLOCI_THREADS", None)
    cpu = speed.pin()
    _, validator = load_cli()
    problems = workloads.problems_for(workload, seed, ROOT, BENCH_DIR, small)
    tag = "%s-seed%d-trace%d%s" % (workload, seed, trace, "-small" if small else "")
    paths = write_problems(problems, WORK / "problems" / tag)
    checker = Checker(problems, validator)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        attempted, failed, metrics, detail = traced_run(problems, paths, checker, seconds,
                                                         results_dir / (tag + "-spans.json"))
    else:
        attempted, failed, metrics, detail = timed_run(problems, paths, checker, seconds, setup_samples)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  environment=environment_stamp(seed, threads, cpu), detail=detail,
                  report_sha256={p.id: checker.shas.get(p.id) for p in problems})
    (results_dir / (tag + ".json")).write_text(json.dumps(record, indent=1, sort_keys=True))
    return result, record


def print_human(workload, result, record):
    detail = record["detail"]
    print("== %s (seed %d, %s)" % (workload, record["seed"], "traced" if record["trace"] else "timed"))
    for name, m in sorted(result["metrics"].items()):
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    if not record["trace"]:
        for name, m in detail["reported"].items():
            print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
        for name, m in detail["measured"].items():
            print("  %-36s %14.6g %s" % ("measured " + name, m["value"], m["unit"]))
        print("  solve_s samples %d (%d beyond p90), whole passes %d, kernel median %.4f s"
              % (detail["solve_s.samples"], detail["solve_s.beyond_p90"], detail["passes"],
                 statistics.median(detail["kernel_s"])))
    else:
        print("  rounds %d; tracing overhead %.3f s on a %.3f s pass"
              % (detail["rounds"], result["metrics"]["trace.overhead_s"]["value"],
                 statistics.median(detail["untraced_wall_s"])))
        for ref in detail["reference"]:
            if ref["expected"] is not None:
                print("  reference %-22s %-40s %6d  expected %d %s"
                      % (ref["problem"], ref["quantity"], ref["observed"], ref["expected"],
                         "ok" if ref["match"] else "MISMATCH"))
    print("  correct %s, attempted %d, failed %d" % (result["correct"], result["attempted"], result["failed"]))
    for f in detail["failures"][:3]:
        print("  failure: %s" % json.dumps(f)[:400])


def run_all(args):
    """Each workload in a child process of its own, so peak RSS stays per workload."""
    combined = {}
    for w in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", w,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print("workload %s failed with exit code %d" % (w, proc.returncode), file=sys.stderr)
            return proc.returncode or 1
        combined[w] = json.loads(lines[-1])
    ok = all(r["correct"] for r in combined.values())
    print(json.dumps({"correct": ok, "attempted": sum(r["attempted"] for r in combined.values()),
                      "failed": sum(r["failed"] for r in combined.values()), "workloads": combined}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("benchmark cannot run: %s" % exc, file=sys.stderr)
        return 2
    print_human(args.workload, result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
