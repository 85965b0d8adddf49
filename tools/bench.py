"""Write BENCH_<label>.json: the benchmark's numbers for one checkout, or
for two checkouts run side by side.

    python3 tools/bench.py --label L [--pairs N] [--pairs-for W=N ...]
                           [--seconds S] [--against REV]

Run it from the root of a checkout.  Each workload W of BENCHMARK.json and
each CLI case W of CLI_CASES runs N times, N from ``--pairs-for W=N``, else
``--pairs``.  A workload runs ``perfbench/run.py --trace 0`` once for each
seed 1..N, and ``perfbench/run.py --trace 1`` once, with seed 1.  Each
untraced run reports end-to-end metrics that are medians over the passes
that fit in S seconds; the file keeps, for each metric, those N values in
seed order and their median, quartiles (inclusive method) and count, and the
per-layer metrics of the traced run.  It also keeps the failed and attempted
item counts, the git revision, the Python version and the number of
processors.  The revision is that of the checkout's HEAD, so beside it
``src_uncommitted`` says whether ``git status --porcelain
--untracked-files=no -- src`` listed any change when the runs began: a
checkout with uncommitted changes under src/ runs code that its revision
does not name.  A CLI case is a ``kronwork saxl`` into a fresh temporary cache,
timed from outside: a cold run, or a warm rerun over the log of an untimed
cold run.  The file keeps its wall times and the peak RSS of the child
process in the same form, the sha256 of the logs after the timed runs (and,
for a warm case, before them: a warm rerun appends nothing, so the two
agree), and whether every report was complete.

With ``--against REV``, REV is checked out into a temporary git worktree,
removed at the end, and every run is made once in each checkout: the two
sides alternate run by run, the one of REV going first in the runs of odd
seeds and in the traced runs, this checkout in the others.  The file then keeps REV's numbers
under "against", in the same form, so that run i of one side pairs with run
i of the other.  REV's worktree is checked out clean, so its
``src_uncommitted`` is false.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()

# name -> the arguments of a `kronwork saxl` run through the CLI, and whether
# the timed run is a warm rerun over the log of an untimed cold run
CLI_CASES = {
    "saxl-cold-m7-cli": (["--m", "7", "--threads", "1"], False),
    "saxl-cold-m8-cli": (["--m", "8", "--threads", "1"], False),
    "saxl-cold-m9-cli": (["--m", "9", "--threads", "1"], False),
    "saxl-warm-m9-cli": (["--m", "9", "--threads", "1"], True),
}


def perfbench(root, workload, seed, seconds, trace):
    """The (report, result) lines of one run of the checkout's perfbench/run.py."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    print("%s: %s" % (root, " ".join(cmd[2:])), file=sys.stderr, flush=True)
    out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                         check=True).stdout.splitlines()
    return json.loads(out[-2]), json.loads(out[-1])


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cli_case(root, args, warm):
    """One `kronwork saxl ARGS` of the checkout, through the CLI into a
    fresh temporary cache, after an untimed cold run into it when warm: its
    wall time, the child's peak RSS in MB, the sha256 of the log after it
    (and before it, when warm) and whether the report says complete."""
    m = args[args.index("--m") + 1]
    cmd = [sys.executable, "-m", "kronwork.cli", "saxl"] + args
    print("%s: kronwork %s%s" % (root, " ".join(cmd[3:]), " (warm)" if warm else ""),
          file=sys.stderr, flush=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    with tempfile.TemporaryDirectory(prefix="bench-saxl-") as tmp:
        cache, report = os.path.join(tmp, "cache"), os.path.join(tmp, "report.json")
        log, before = os.path.join(cache, "m%s.jsonl" % m), {}
        if warm:
            subprocess.run(cmd + ["--cache", cache], cwd=root, env=env, check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            before = {"log_sha256_before": sha256(log)}
        with open(report, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd + ["--cache", cache], cwd=root, env=env,
                                    stdout=out, stderr=subprocess.DEVNULL)
            # the rusage of this child alone, which RUSAGE_CHILDREN is not
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, cmd)
        with open(report) as fh:
            complete = json.load(fh)["complete"]
        return dict(before, wall_s=wall, peak_rss_mb=usage.ru_maxrss / 1024.0,
                    log_sha256=sha256(log), complete=complete)


def summary(values):
    """Median, quartiles and count of one metric's values, kept in order."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "count": len(values),
            "values": values}


def in_turn(roots, i):
    """The checkouts in the order of run i (from 0): with two, the second
    one first in every other run."""
    return roots[::-1] if i % 2 == 0 else roots


def bench(roots, runs, seconds):
    """Each checkout's document, its workloads and its CLI cases, and the
    manifest of its first perfbench run; runs maps each name to its count."""
    done = {root: {name: [] for name in runs} for root in roots}
    for seed in range(1, max(runs.values()) + 1):
        for name, n in runs.items():
            for root in in_turn(roots, seed - 1) if seed <= n else ():
                done[root][name].append(
                    cli_case(root, *CLI_CASES[name]) if name in CLI_CASES
                    else perfbench(root, name, seed, seconds, 0)[1])
    traced = {root: {} for root in roots}
    for name in runs:
        for root in in_turn(roots, 0) if name not in CLI_CASES else ():
            traced[root][name] = perfbench(root, name, 1, seconds, 1)
    docs = {}
    for root in roots:
        doc, manifest = {"workloads": {}, "cli": {}}, None
        for name, results in done[root].items():
            if name in CLI_CASES:
                args, warm = CLI_CASES[name]
                doc["cli"][name] = case = {
                    "command": "kronwork saxl %s --cache %s" % (
                        " ".join(args), "DIR, after an untimed cold run into DIR" if warm
                        else "EMPTY_DIR"),
                    "wall_s": dict(summary([r["wall_s"] for r in results]), unit="s"),
                    "peak_rss_mb": dict(summary([r["peak_rss_mb"] for r in results]),
                                        unit="MB"),
                    "log_sha256": sorted({r["log_sha256"] for r in results}),
                    "complete": all(r["complete"] for r in results),
                }
                if warm:
                    case["log_sha256_before"] = sorted({r["log_sha256_before"]
                                                        for r in results})
                continue
            report, layers = traced[root][name]
            manifest = manifest or report["manifest"]
            doc["workloads"][name] = {
                "end_to_end": {
                    metric: dict(summary([r["metrics"][metric]["value"] for r in results]),
                                 unit=value["unit"])
                    for metric, value in results[0]["metrics"].items()},
                "failed": sum(r["failed"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "per_layer": {metric: value["value"]
                              for metric, value in layers["metrics"].items()},
            }
        docs[root] = doc, manifest
    return docs


def git(*args):
    return subprocess.run(["git"] + list(args), cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=True).stdout.strip()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--pairs-for", action="append", default=[], metavar="W=N",
                    help="the number of runs of workload or CLI case W, in place of --pairs")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--against", metavar="REV")
    args = ap.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.label):
        ap.error("--label takes letters, digits, '_', '.' and '-' only")
    if not os.path.isfile(os.path.join(ROOT, "perfbench", "run.py")):
        ap.error("no perfbench/run.py here; run from a checkout's root")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        runs = {w["name"]: args.pairs for w in json.load(fh)["workloads"]}
    runs.update(dict.fromkeys(CLI_CASES, args.pairs))
    for item in args.pairs_for:
        name, _, n = item.partition("=")
        if name not in runs or not n.isdigit():
            ap.error("--pairs-for takes W=N for a workload of BENCHMARK.json or a CLI case "
                     "(%s)" % ", ".join(CLI_CASES))
        runs[name] = int(n)
    if min(runs.values()) < 1:
        ap.error("every workload and CLI case needs at least 1 run")
    roots, against = [ROOT], None
    dirty = git("status", "--porcelain", "--untracked-files=no", "--", "src")
    with tempfile.TemporaryDirectory(prefix="bench-against-") as tmp:
        if args.against is not None:
            against = git("rev-parse", "--verify", args.against + "^{commit}")
            tree = os.path.join(tmp, "tree")
            git("worktree", "add", "--detach", tree, against)
            roots.append(tree)
        try:
            docs = bench(roots, runs, args.seconds)
        finally:
            if against is not None:
                git("worktree", "remove", "--force", tree)
    doc, manifest = docs[ROOT]
    command = "perfbench/run.py --workload W --seconds %g --trace 0 --seed 1..N, and " \
              "--trace 1 --seed 1; each CLI case N times; N of each: %s" % (
                  args.seconds, ", ".join("%s %d" % kv for kv in runs.items()))
    if against is not None:
        command += "; each run once at --against, alternating, it first at odd seeds"
    out = {
        "label": args.label,
        "git_revision": manifest["git_revision"],
        "src_uncommitted": bool(dirty),
        "python": manifest["python"],
        "nproc": manifest["nproc"],
        "cpus_usable": manifest["cpus_usable"],
        "command": command,
        "workloads": doc["workloads"],
        "cli": doc["cli"],
    }
    if against is not None:
        other, _ = docs[tree]
        out["against"] = dict(other, git_revision=against, src_uncommitted=False)
    path = os.path.join(ROOT, "BENCH_%s.json" % args.label)
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
