"""Write BENCH_<label>.json: the benchmark's numbers for one checkout.

    python3 tools/bench.py --label L [--pairs N] [--seconds S]

Run it from the root of a checkout.  For each workload in BENCHMARK.json it
runs ``perfbench/run.py --trace 0`` once for each seed 1..N, and
``perfbench/run.py --trace 1`` once, with seed 1.  Each untraced run reports
end-to-end metrics that are medians over the passes that fit in S seconds;
the file keeps, for each metric, those N values in seed order and their
median, quartiles (inclusive method) and count, and the per-layer metrics of
the traced run.  It also keeps the failed and attempted item counts, the git
revision, the Python version and the number of processors.

To compare two commits, run this in a checkout of each, on the same machine,
with the same N and S; run i of one file pairs with run i of the other.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.getcwd()
RUN = os.path.join(ROOT, "perfbench", "run.py")


def perfbench(workload, seed, seconds, trace):
    """The (report, result) lines of one run of perfbench/run.py."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    print(" ".join(cmd[1:]), file=sys.stderr, flush=True)
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout.splitlines()
    return json.loads(out[-2]), json.loads(out[-1])


def summary(values):
    """Median, quartiles and count of one metric's values, kept in order."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "count": len(values),
            "values": values}


def bench(workloads, pairs, seconds):
    runs = {w: [] for w in workloads}
    for seed in range(1, pairs + 1):
        for w in workloads:
            runs[w].append(perfbench(w, seed, seconds, 0))
    doc = {}
    for w in workloads:
        results = [result for _, result in runs[w]]
        _, traced = perfbench(w, 1, seconds, 1)
        doc[w] = {
            "end_to_end": {
                name: dict(summary([r["metrics"][name]["value"] for r in results]),
                           unit=metric["unit"])
                for name, metric in results[0]["metrics"].items()},
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "per_layer": {name: metric["value"]
                          for name, metric in traced["metrics"].items()},
        }
    return doc, runs[workloads[0]][0][0]["manifest"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.label):
        ap.error("--label takes letters, digits, '_', '.' and '-' only")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if not os.path.isfile(RUN):
        ap.error("no perfbench/run.py here; run from a checkout's root")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    doc, manifest = bench(workloads, args.pairs, args.seconds)
    out = {
        "label": args.label,
        "git_revision": manifest["git_revision"],
        "python": manifest["python"],
        "nproc": manifest["nproc"],
        "cpus_usable": manifest["cpus_usable"],
        "command": "perfbench/run.py --workload W --seconds %g --trace 0 --seed 1..%d;"
                   " --trace 1 --seed 1" % (args.seconds, args.pairs),
        "workloads": doc,
    }
    path = os.path.join(ROOT, "BENCH_%s.json" % args.label)
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
