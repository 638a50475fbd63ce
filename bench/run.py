"""The tropab benchmark.

    python3 bench/run.py --workload pave --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --seed 1               # all four workloads in turn
    python3 bench/run.py --compare bench/out/before bench/out/after

One run makes the workload's inputs from the seed, measures it for at
least ``--seconds`` seconds (and at least MIN_OPS ops, so that the p90
has ten samples beyond it), checks every output against an independent
oracle and prints the metrics.  The last line of standard output is one
JSON object: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Every run also writes a result file, and a
traced run its spans, under ``bench/out/``.  See bench/README.md for the
workloads and for which layer metric should move which end-to-end one.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_OPS = 110          # p90 with at least ten samples beyond it
SETUP_RUNS = 5         # fresh processes timed for setup_s
HARD_STOP_S = 120      # stop measuring here even below MIN_OPS
OP_TIMEOUT_S = 8       # an op still running after this fails
WORKLOADS = ("pave", "query", "algebra", "cli")

perf = time.perf_counter


def spec():
    """BENCHMARK.json: metric names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def fail(msg):
    sys.stderr.write("bench: %s\n" % msg)
    sys.exit(2)


def import_package():
    """Import tropab from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "tropab" / "__init__.py").is_file():
        fail("no tropab package under %s" % src)
    sys.path.insert(0, str(src))
    import tropab
    if Path(tropab.__file__).resolve().parent != (src / "tropab").resolve():
        fail("imported tropab from %s, not from %s" % (tropab.__file__, src))


def make_workload(name, seed):
    import workloads as W
    if name == "pave":
        return W.Pave(seed)
    if name == "query":
        return W.Query(seed)
    if name == "algebra":
        return W.Algebra(seed)
    return W.Cli(seed, ROOT)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Pass:
    """The ops of one measuring pass: latencies and failures."""

    def __init__(self, id_prefix=""):
        self.id_prefix = id_prefix   # op ids in the spans: prefix + index
        self.lat = []
        self.failures = []      # (op index, reason)
        self.unexpected = 0     # exceptions that are not DomainErrors
        self.round_busy = []    # (ops, seconds inside op spans) per round
        self.wall = 0.0
        self.wall_busy = 0.0    # wall seconds inside op spans

    @property
    def attempted(self):
        return len(self.lat)

    @property
    def busy(self):
        return sum(self.lat)

    @property
    def rounds(self):
        return len(self.round_busy)


class OpTimeout(BaseException):
    """Raised in an op that runs past OP_TIMEOUT_S (a BaseException, so
    no ``except Exception`` in the package can swallow it)."""


def _timeout(signum, frame):
    raise OpTimeout()


def run_round(wl, tr, ops, out):
    """Run the ops of one round, timing each on ``clock`` (the wall time
    is kept too); the oracle check runs after the op, outside its
    span."""
    from tropab.errors import DomainError
    signal.signal(signal.SIGALRM, _timeout)
    first = out.attempted
    for op in ops:
        idx = out.attempted
        reason = None
        w0, t0 = perf(), clock()
        try:
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
            try:
                res = tr.op(out.id_prefix + str(idx) if out.id_prefix
                            else idx, wl.run, op, tr)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            reason = "timed out after %d s" % OP_TIMEOUT_S
        except DomainError as e:
            reason = "refused: %s %s" % (e.code, e)
        except Exception as e:
            reason = "unexpected %s: %s" % (type(e).__name__, e)
            out.unexpected += 1
        out.lat.append(clock() - t0)
        out.wall_busy += perf() - w0
        if reason is None:
            try:
                reason = wl.check(op, res, tr)
            except Exception as e:
                reason = "check raised %s: %s" % (type(e).__name__, e)
                out.unexpected += 1
        if reason is not None:
            out.failures.append((idx, reason))
    out.round_busy.append((out.attempted - first, sum(out.lat[first:])))


def measure(wl, passes, seconds, min_ops=0):
    """Run whole rounds until both ``seconds`` of wall time and
    ``min_ops`` ops have passed.  ``passes`` is a list of (tracer, Pass);
    with two, each round runs once under each, the order alternating
    between rounds so neither side always runs first."""
    start = perf()
    i = 0
    while True:
        elapsed = perf() - start
        if (elapsed >= seconds and passes[0][1].attempted >= min_ops) or \
                elapsed >= HARD_STOP_S:
            break
        order = passes if i % 2 == 0 else passes[::-1]
        for tr, out in order:
            run_round(wl, tr, wl.round(i), out)
        i += 1
    for _, out in passes:
        out.wall = perf() - start


def run_diagnostics(wl, tr, out):
    """Run the workload's known-defective inputs once, untimed: their
    failures are reported apart from the timed ops, so the defects show
    in every run without failing the measured stream."""
    if hasattr(wl, "diagnostics"):
        run_round(wl, tr, wl.diagnostics(), out)


def percentile(xs, p):
    """Linear-interpolated percentile of the samples."""
    s = sorted(xs)
    k = (len(s) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def setup_seconds(workload, seed):
    """Median CPU time of fresh processes that start the interpreter,
    import the package and build the workload's inputs, then exit."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = clock()
        p = subprocess.run([sys.executable, str(BENCH / "run.py"),
                            "--workload", workload, "--seed", str(seed),
                            "--setup-only"], cwd=str(ROOT),
                           capture_output=True, timeout=120)
        times.append(clock() - t0)
        if p.returncode != 0:
            fail("set-up process failed: %s" % p.stderr.decode()[-500:])
    return statistics.median(times), times


def peak_rss_mb(with_children):
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------

def layer_metrics(tracer, plain, traced):
    spans = tracer.by_name()

    def busy(name):
        return sum(s[0] for s in spans.get(name, ()))

    def calls(name):
        return len(spans.get(name, ()))

    def p50_ms(name):
        durs = [s[0] for s in spans.get(name, ())]
        return 1000 * statistics.median(durs) if durs else 0.0

    dl = spans.get("quadform_delaunay.delaunay_subdivision", [])
    refused = [s for s in dl if s[1] == "WindowTooSmall"]
    returned = [s for s in dl if s[1] is None]
    v = {
        "quadform_delaunay.delaunay_subdivision.calls": len(dl),
        "quadform_delaunay.delaunay_subdivision.busy_s": sum(
            s[0] for s in dl),
        "quadform_delaunay.delaunay_subdivision.refused": len(refused),
        "quadform_delaunay.delaunay_subdivision.refused_busy_s": sum(
            s[0] for s in refused),
        "quadform_delaunay.delaunay_subdivision.success_ratio":
            len(returned) / len(dl) if dl else 0.0,
        "quadform_delaunay.sites": sum(s[2]["sites"] for s in dl),
        "quadform_delaunay.cert_rejects": tracer.counts.get(
            "quadform_delaunay.cert_rejects", 0),
        "cli.spawn_ms": p50_ms("cli.spawn"),
        "cli.inproc_ms": p50_ms("cli.inproc"),
        "trace.overhead_frac": 1.0 - (traced.attempted / traced.busy) /
        (plain.attempted / plain.busy),
    }
    v["cli.startup_ms"] = v["cli.spawn_ms"] - v["cli.inproc_ms"]
    out = {}
    for m in spec()["per_layer"]:
        name = m["name"]
        if name not in v:
            layer, what = name.rsplit(".", 1)
            v[name] = calls(layer) if what == "calls" else busy(layer)
        out[name] = {"value": v[name], "unit": m["unit"]}
    return out


# ---------------------------------------------------------------------------
# environment and result files
# ---------------------------------------------------------------------------

def source_id():
    """A hash of the package sources: it names the code that was
    measured in any checkout, committed or not."""
    h = hashlib.sha1()
    for f in sorted((ROOT / "src").rglob("*.py")):
        h.update(f.relative_to(ROOT).as_posix().encode())
        h.update(f.read_bytes())
    return "src-sha1:" + h.hexdigest()


def environment(args):
    import numpy
    import workloads as W
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "machine": platform.machine(),
            "source": source_id(), "seed": args.seed,
            "seconds": args.seconds, "min_ops": MIN_OPS,
            "setup_runs": SETUP_RUNS,
            "window_policy": {"rank %d" % r: list(ws)
                              for r, ws in W.WINDOWS.items()},
            "loop": "closed, 1 client, sequential"}


def oracle_rejects(p):
    return sum(1 for _, r in p.failures if r.startswith("Delaunay oracle"))


def summarize_failures(p):
    kinds = {}
    for _, reason in p.failures:
        kind = reason.split(":")[0]
        kinds[kind] = kinds.get(kind, 0) + 1
    return {"by_kind": kinds, "examples": [r for _, r in p.failures[:5]]}


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------

def run(args):
    import_package()
    wl = make_workload(args.workload, args.seed)
    if args.setup_only:
        return 0
    import oracles
    import spans as T
    problems = []
    why = oracles.self_test()
    if why is not None:
        problems.append("Delaunay oracle self-test: " + why)
    if hasattr(wl, "prepare_checks"):
        why = wl.prepare_checks()
        if why is not None:
            problems.append(why)

    main, diag = Pass(), Pass("diagnostic-")
    if args.trace:
        plain, tracer = Pass(), T.Tracer()
        measure(wl, [(tracer, main), (T.Untraced(), plain)], args.seconds)
        run_diagnostics(wl, tracer, diag)
        metrics = layer_metrics(tracer, plain, main)
    else:
        measure(wl, [(T.Untraced(), main)], args.seconds, MIN_OPS)
        rss = peak_rss_mb(args.workload == "cli")
        run_diagnostics(wl, T.Untraced(), diag)
        setup, setup_samples = setup_seconds(args.workload, args.seed)
        metrics = {
            "setup_s": setup,
            "ops_per_s": main.attempted / main.busy,
            "op_p50_ms": 1000 * percentile(main.lat, 50),
            "op_p90_ms": 1000 * percentile(main.lat, 90),
            "peak_rss_mb": rss,
        }
        units = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in metrics.items()}

    failed = len(main.failures)
    attempted = main.attempted
    correct = (failed == 0 and not problems and main.unexpected == 0 and
               diag.unexpected == 0)
    p90 = percentile(main.lat, 90)
    tail = sum(1 for x in main.lat if x > p90)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d-%d-%d" % (args.workload, args.seed, args.trace,
                                        int(time.time()), os.getpid())
    record = dict(result, workload=args.workload, trace=args.trace,
                  env=environment(args), rounds=main.rounds,
                  round_busy=main.round_busy,
                  measured_wall_s=main.wall, failed_frac=failed / attempted,
                  wall_ops_per_s=attempted / main.wall_busy,
                  p90_tail_samples=tail, failures=summarize_failures(main),
                  diagnostics=dict(summarize_failures(diag),
                                   attempted=diag.attempted,
                                   failed=len(diag.failures),
                                   oracle_rejects=oracle_rejects(diag)),
                  problems=problems)
    if args.trace:
        tracer.write(out_dir / (stem + ".spans.jsonl"))
    else:
        record["setup_samples_s"] = setup_samples
    with open(out_dir / (stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("workload %s  seed %d  trace %d  ops %d (%d beyond the p90)  "
          "rounds %d  wall %.1f s" % (args.workload, args.seed, args.trace,
                                      attempted, tail, main.rounds,
                                      main.wall))
    for name, m in metrics.items():
        print("  %-52s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-52s %14.6g %s" % ("failed_frac", failed / attempted,
                                 "frac (%d of %d)" % (failed, attempted)))
    for kind, n in sorted(summarize_failures(main)["by_kind"].items()):
        print("  failed: %d x %s" % (n, kind))
    if diag.attempted:
        print("  known-defect diagnostics (untimed): %d of %d failed, the "
              "Delaunay oracle rejected %d pavings" % (
                  len(diag.failures), diag.attempted, oracle_rejects(diag)))
        for kind, n in sorted(summarize_failures(diag)["by_kind"].items()):
            print("    %d x %s" % (n, kind))
    for p in problems:
        print("  problem: " + p)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# compare mode
# ---------------------------------------------------------------------------

def load_results(where):
    """(workload, metric) -> [(seed, value)], and workload -> failed ÷
    attempted over all its runs."""
    files = sorted(glob.glob(os.path.join(where, "*.json"))) \
        if os.path.isdir(where) else sorted(glob.glob(where))
    out, counts = {}, {}
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        c = counts.setdefault(rec["workload"], [0, 0])
        c[0] += rec["failed"]
        c[1] += rec["attempted"]
        values = {name: m["value"] for name, m in rec["metrics"].items()}
        if not rec["trace"]:
            values["failed_frac"] = rec["failed_frac"]
        for name, v in values.items():
            out.setdefault((rec["workload"], name), []).append(
                (rec["env"]["seed"], v))
    return out, {w: f / n for w, (f, n) in counts.items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound, more_fail=False):
    """A gain needs the change to win at least nine tenths of the pairs
    and the medians to differ by more than the parent's interquartile
    distance, and is refused when B fails a larger share of its ops
    (``more_fail``); a loss is a median worse by more than the bound; a
    spread wider than the bound leaves the metric unresolved unless
    every run of one side beats every run of the other."""
    sign = 1 if better == "higher" else -1
    av = [v for _, v in a]
    bv = [v for _, v in b]
    qa, qb = quartiles(av), quartiles(bv)
    seeds = {s for s, _ in a} & {s for s, _ in b}
    if seeds:
        da, db = dict(a), dict(b)
        pairs = [(da[s], db[s]) for s in sorted(seeds)]
    else:
        pairs = list(zip(av, bv))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    diff = sign * (qb[1] - qa[1])
    if pairs and wins >= 0.9 * len(pairs) and diff > qa[2] - qa[0]:
        return "not better: more ops fail" if more_fail else "better"
    if bound is None:
        return "no change shown"
    all_better = sign * (min(bv) if sign > 0 else max(bv)) > \
        sign * (max(av) if sign > 0 else min(av))
    spread = max((qa[2] - qa[0]) / abs(qa[1]) if qa[1] else 0.0,
                 (qb[2] - qb[0]) / abs(qb[1]) if qb[1] else 0.0)
    if spread > bound and not all_better:
        return "unresolved"
    if -diff > bound * abs(qa[1]):
        return "worse"
    return "within bound"


def compare(dir_a, dir_b):
    b = spec()
    info = {m["name"]: (m["better"], m.get("bound"))
            for m in b["end_to_end"] + b["per_layer"]}
    (a, fail_a), (b, fail_b) = load_results(dir_a), load_results(dir_b)
    print("%-8s %-52s %-30s %-30s %s" % ("workload", "metric",
                                         "A median [q1, q3]",
                                         "B median [q1, q3]", "verdict"))
    for key in sorted(set(a) & set(b)):
        wl, name = key
        qa, qb = quartiles([v for _, v in a[key]]), \
            quartiles([v for _, v in b[key]])
        if name == "failed_frac":
            v = ("more ops fail" if fail_b[wl] > fail_a[wl] else
                 "fewer ops fail" if fail_b[wl] < fail_a[wl] else
                 "same failures")
        elif name in info:
            v = verdict(a[key], b[key], *info[name],
                        more_fail=fail_b[wl] > fail_a[wl])
        else:
            continue
        print("%-8s %-52s %-30s %-30s %s" % (
            wl, name, "%.4g [%.4g, %.4g]" % (qa[1], qa[0], qa[2]),
            "%.4g [%.4g, %.4g]" % (qb[1], qb[0], qb[2]), v))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload; without it, all four in turn")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload's inputs and exit (timed by "
                        "the parent for setup_s)")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two sets of result files (directories "
                        "or globs)")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run(args)
    if args.setup_only:
        p.error("--setup-only needs --workload")
    return run_all(args)


def run_all(args):
    """Every workload in turn, each in its own process (so set-up time
    and peak RSS stay per workload); the last line combines their
    results."""
    results = {}
    for w in WORKLOADS:
        p = subprocess.run([sys.executable, str(BENCH / "run.py"),
                            "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)],
                           cwd=str(ROOT), stdout=subprocess.PIPE)
        lines = p.stdout.decode().splitlines()
        print("\n".join(lines[:-1]))
        if p.returncode != 0 or not lines:
            return p.returncode or 2
        results[w] = json.loads(lines[-1])
    print(json.dumps({"seed": args.seed, "workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
