"""Deep-window report digests, checked outside the tier-1 suite.

Runs six CLI commands whose windows are deeper than any that tier-1 pins,
each in a fresh process with PYTHONHASHSEED=0, from the repository root.
Each report body's SHA-256 (canonical JSON of its "report", as
``tests/test_acceptance.py:_report_digest`` computes it) is compared with
its pin.  Beside each it prints the raw wall time and the peak RSS of the
process, which are leads only: raw times drift between runs and hosts.
Exits 1 on any mismatch or unexpected exit code, else 0.

    python tests/deep_windows.py

The six take about 15 s together on a shared 2-vCPU host; the deepest
(``der ... --max 26``) peaks near 240 MB.
"""

import hashlib
import json
import os
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


def main():
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for k, (argv, pinned) in enumerate(DEEP_WINDOWS):
            out = os.path.join(tmp, "report%d.json" % k)
            code, wall, rss = run_one(argv, out)
            digest = report_digest(out) if code == 0 else "exit %d" % code
            ok = digest == pinned
            bad += not ok
            print("%-8s %s  lead: %6.2f s %7.1f MB  %s" % (
                "ok" if ok else "MISMATCH", digest[:16], wall, rss, " ".join(argv)))
            if not ok:
                print("         pinned %s\n         got    %s" % (pinned, digest))
    print("%d of %d digests match" % (len(DEEP_WINDOWS) - bad, len(DEEP_WINDOWS)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
