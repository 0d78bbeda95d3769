"""The dgla benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload xi_w21 --seed 1 --seconds 10 --trace 0

Every repetition runs in a fresh single-threaded ``python3`` process
(``rep.py``), one process at a time, so no cache outlives a repetition.
``--trace 0`` measures the end-to-end metrics, with times of the work at
the reference pace of ``pace.py``; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
median traced one. Either way repetitions continue until ``--seconds`` have
passed, at least one of each kind. The last line of output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import collections
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

# Set-up is short and noisy (interpreter start), so a run also measures it
# in this many set-up-only processes before each repetition and after the
# last, spread over the run rather than in one burst.
SETUP_PROBES = 6
# A whole run must end within 180 s; every child is killed by this point.
RUN_LIMIT_S = 175

END_TO_END = [
    ("setup_s", "s"),
    ("paced_wall_s", "s"),
    ("paced_op_p50_ms", "ms"),
    ("paced_op_p80_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


class ChildFailed(RuntimeError):
    pass


class Children:
    """Starts rep.py for one workload, one process at a time, all by a deadline."""

    def __init__(self, workload, size, seed):
        self.workload = workload
        self.size = size
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def run(self, mode):
        """Run rep.py once in the given mode and return its JSON result."""
        t0 = time.monotonic()
        cmd = [sys.executable, "-s", os.path.join(HERE, "rep.py"), "--workload", self.workload,
               "--size", self.size, "--seed", str(self.seed), "--mode", mode, "--t0", repr(t0)]
        # string hashing decides set iteration order, which can reorder the
        # library's work; every repetition hashes alike to keep that out of
        # the run-to-run spread
        env = {"PATH": os.environ.get("PATH", ""), "PYTHONHASHSEED": "0"}
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, self.deadline - t0))
        if proc.returncode != 0:
            raise ChildFailed("%s repetition of %s exited %d:\n%s"
                              % (mode, self.workload, proc.returncode, proc.stderr[-4000:]))
        return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Linear-interpolated q-quantile (0 <= q <= 1) of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def result(reps, values, names):
    """The output object: error counts of all repetitions and the named metrics."""
    failed = sum(len(r["problems"]) for r in reps)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, *_ in names},
    }


def summarize(setups, reps):
    """The end-to-end result of untraced repetitions and set-up probes.

    Times of the work are at the reference pace (see ``pace.py``).
    """
    op_ms = [s * 1000.0 for r in reps for s in r["paced_op_s"]]
    values = {
        "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
        "paced_wall_s": statistics.median(r["paced_wall_s"] for r in reps),
        "paced_op_p50_ms": percentile(op_ms, 0.5),
        "paced_op_p80_ms": percentile(op_ms, 0.8),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return result(reps, values, END_TO_END)


def run_untraced(children, seconds):
    def probe():
        return [children.run("setup")["setup_s"] for _ in range(SETUP_PROBES)]

    setups, reps = [], []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        setups += probe()
        reps.append(children.run("run"))
    setups += probe()
    return summarize(setups, reps), reps


def run_traced(children, seconds):
    """Alternate untraced and traced repetitions; metrics of the median traced one."""
    plain, traced = [], []
    start = time.monotonic()
    while not traced or time.monotonic() - start < seconds:
        plain.append(children.run("run"))
        traced.append(children.run("trace"))
    for r in traced:
        if r["wiring_errors"]:
            raise ChildFailed("trace wiring broken: " + "; ".join(r["wiring_errors"]))
    traced.sort(key=lambda r: r["wall_s"])
    layers = dict(traced[(len(traced) - 1) // 2]["layers"])
    layers["trace.overhead"] = (statistics.median(r["wall_s"] for r in traced)
                                / statistics.median(r["wall_s"] for r in plain))
    reps = plain + traced
    return result(reps, layers, tracer.metric_names()), reps


def environment():
    """Facts about the machine and the code that a reading depends on."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = os.path.join(ROOT, "src", "dgla")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as f:
                lines += sum(1 for line in f if line.strip())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "src_dgla_nonblank_lines": lines,
    }


def git_commit():
    """HEAD of the checkout read from .git, or "unknown" outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run one dgla benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=99)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs of the same shape, for the self-test")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dgla", "__init__.py")):
        print("perfbench: no dgla sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    print("environment: " + json.dumps(environment()))
    run = run_traced if args.trace else run_untraced
    try:
        out, reps = run(Children(args.workload, size, args.seed), args.seconds)
    except (ChildFailed, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    problems = collections.Counter(p for r in reps for p in r["problems"])
    for problem, count in sorted(problems.items()):
        print("failed operations (%d): %s" % (count, problem))
    print("repetitions: %d, error_rate: %s" % (len(reps), out["failed"] / out["attempted"]))
    paced = [r for r in reps if "pace" in r]
    print("per repetition: raw wall_s %s, paced_wall_s %s, median pace %s"
          % tuple([round(r[k], 4) for r in paced] for k in ("wall_s", "paced_wall_s", "pace")))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
