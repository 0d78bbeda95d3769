"""Deep-window report digests, checked outside the tier-1 suite.

Runs six CLI commands whose windows are deeper than any that tier-1 pins,
each in a fresh process with PYTHONHASHSEED=0, from the repository root.
Each report body's SHA-256 (canonical JSON of its "report", as
``tests/test_acceptance.py:_report_digest`` computes it) is compared with
its pin.  Beside each it prints the raw wall time and the peak RSS of the
process, which are leads only: raw times drift between runs and hosts.
``--repeat N`` runs each command N times (default 1), checks every run's
digest, and prints the median and, in brackets, the range of both.
Exits 1 on any mismatch or unexpected exit code, else 0.

    python tests/deep_windows.py [--repeat N]

The six take about 15 s together on a shared 2-vCPU host; the deepest
(``der ... --max 26``) peaks near 240 MB.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from dgla import io  # noqa: E402

# (argv, SHA-256 of the report body); every command exits 0
DEEP_WINDOWS = [
    (["xi", "fixtures/w21.json", "--min", "0", "--max", "8"],
     "0988136cded42ce00049221db6ca33de7e921269f923292ef24b24d811af47b0"),
    (["der", "fixtures/presentation_w11.json", "--sub", "omega", "--min", "0", "--max", "24"],
     "edcbb062da54a6ee8c2d330cc854ec0a6d50469105ab8959aeb9bd05ad7df037"),
    (["der", "fixtures/presentation_w11.json", "--sub", "omega", "--min", "0", "--max", "26"],
     "17f6a861cf46ec9a6bab3308057298fa7b427845384b8e8a44489585dec20230"),
    (["glue", "fixtures/w21.json", "fixtures/w11.json", "--min", "0", "--max", "6",
      "--assert-semisimple"],
     "9027f96c047fa59a6af13a99a97d1a7a816b2f1705371aba259f4e22ff1bc863"),
    (["glue", "fixtures/w21.json", "fixtures/w21.json", "--min", "0", "--max", "6",
      "--assert-semisimple"],
     "ef54624643f705704d1da9f794dc7ca6840d390269311c1b279eadace425e579"),
    (["glue", "fixtures/w21.json", "fixtures/w11.json", "--min", "0", "--max", "8",
      "--assert-semisimple"],
     "ca11c1148cbfef59c1792dd457b868e91ebc600be2fb041983fd8d996ef97232"),
]


def run_one(argv, out):
    """(exit code, wall seconds, peak RSS in MB) of one CLI process writing to ``out``."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "dgla.cli"] + argv + ["--out", out],
                            cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    # wait4 gives this child's own rusage, so each peak is its own
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024


def report_digest(path):
    with open(path) as fh:
        body = io.canonical_dumps(json.load(fh)["report"])
    return hashlib.sha256(body.encode()).hexdigest()


def spread(values, fmt):
    """The median of ``values`` in ``fmt``, then their range in brackets when there are several."""
    text = fmt % statistics.median(values)
    if len(values) > 1:
        text += " [%s..%s]" % ((fmt % min(values)).strip(), (fmt % max(values)).strip())
    return text


def main(args=None):
    parser = argparse.ArgumentParser(description="Check the deep-window report digests.")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="runs of each command, each digest checked (default 1)")
    repeat = parser.parse_args(args).repeat
    if repeat < 1:
        parser.error("--repeat must be at least 1")
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for k, (argv, pinned) in enumerate(DEEP_WINDOWS):
            digests, walls, rsss = [], [], []
            for r in range(repeat):
                out = os.path.join(tmp, "report%d_%d.json" % (k, r))
                code, wall, rss = run_one(argv, out)
                digests.append(report_digest(out) if code == 0 else "exit %d" % code)
                walls.append(wall)
                rsss.append(rss)
            wrong = [d for d in digests if d != pinned]
            bad += bool(wrong)
            print("%-8s %s  lead: %s s %s MB  %s" % (
                "MISMATCH" if wrong else "ok", (wrong or digests)[0][:16],
                spread(walls, "%6.2f"), spread(rsss, "%7.1f"), " ".join(argv)))
            if wrong:
                print("         pinned %s\n         got    %s (%d of %d runs)" % (
                    pinned, wrong[0], len(wrong), repeat))
    print("%d of %d digests match" % (len(DEEP_WINDOWS) - bad, len(DEEP_WINDOWS)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
