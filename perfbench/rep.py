"""One repetition of a workload, in a fresh interpreter.

``run.py`` starts this file once per repetition, so nothing the library
caches in one repetition carries over to the next. It imports ``dgla`` from
the checkout's ``src``, builds the workload's inputs, and then, by mode:

- ``setup``: stops there and reports the set-up time only;
- ``run``: runs the workload untraced, with the machine's pace sampled
  by ``pace.Pacer``, and checks its outputs;
- ``trace``: does the same with every layer wrapped by ``tracer.Tracer``,
  and writes the spans to ``.perfbench_out`` when the run is over.

It prints one JSON object as its last line of output.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPAN_DIR = os.path.join(ROOT, ".perfbench_out")


def import_dgla():
    """Import dgla from this checkout's src, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import dgla

    if os.path.dirname(os.path.dirname(os.path.abspath(dgla.__file__))) != src:
        raise ImportError("dgla imported from %s, not from %s" % (dgla.__file__, src))
    return dgla


def run_rep(workload, size, seed, mode, t0):
    """Set up and, unless mode is "setup", run and check one repetition.

    ``wall_s`` is raw; a "run" repetition also reports the wall time and
    the time of each operation at the reference pace (see ``pace.py``),
    and the median pace.

    ``t0`` is the parent's ``time.monotonic()`` just before it started this
    process, so set-up time covers interpreter start, the import of dgla and
    building the inputs.
    """
    import_dgla()
    inputs = workload.setup(size, seed)
    out = {"setup_s": time.monotonic() - t0}
    if mode == "setup":
        return out
    tracer = None
    if mode == "trace":
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer("%s-seed%d-pid%d" % (workload.name, seed, os.getpid()))
        tracer.install()
        start = time.perf_counter()
        result, ops = tracer.run_root(workload.run, inputs, time.perf_counter)
        end = time.perf_counter()
    else:
        import pace

        pacer = pace.Pacer()
        with pacer.running():
            start = pacer.clock()
            result, ops = workload.run(inputs, pacer.clock)
            end = pacer.clock()
        out["paced_wall_s"] = pacer.paced(start, end)
        out["paced_op_s"] = [pacer.paced(a, b) for a, b in ops]
        out["pace"] = statistics.median(pacer.factors())
    out["wall_s"] = end - start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["attempted"] = len(ops)
    out["problems"] = workload.check(inputs, result)
    if tracer is not None:
        metrics = tracer.layer_metrics()
        out["layers"] = metrics
        out["wiring_errors"] = tracer_mod.wiring_errors(workload.name, metrics)
        os.makedirs(SPAN_DIR, exist_ok=True)
        tracer.dump(os.path.join(SPAN_DIR, "%s.spans.json.gz" % workload.name))
    return out


def main(argv=None):
    sys.path.insert(0, HERE)
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--size", default="full", choices=["full", "smoke"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "run", "trace"])
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)
    out = run_rep(workloads.WORKLOADS[args.workload], args.size, args.seed, args.mode, args.t0)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
