"""The kronwork benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a checkout; it imports kronwork from ``src/`` there
and keeps its scratch files in ``.perfbench-work/``.

A run repeats passes of one workload until ``--seconds`` have gone by.  Each
pass is a fresh interpreter (`worker.py`) driven by this single-threaded
process, because kronwork's module-level caches would make a second pass in
the same process a different program.  With ``--trace 0`` the last line of
stdout carries the end-to-end metrics, medians over the passes; with
``--trace 1`` passes alternate untraced and traced on the same input, and the
last line carries the per-layer metrics of the traced passes (see
`spans.py`) and the tracing overhead.  The line before it is a report with
the manifest, failure counts and per-item statistics.

Correctness is checked on every pass: a ``saxl`` report must be byte
identical to the complete one, every pipeline certificate must verify with
goal ``(nu_hat; xi, xi)`` and a single-move trace of length d + 1, and
passes, each in an interpreter with its own string-hash seed, must give the
same draws and reports.  An item or pass past its time limit counts as
failed.

Known gaps, left for later work:

- the fourth-power pipeline on uniform draws at n = 210: with seed 20260826,
  draws 8, 11, 13 and 34 each took over 10 s and draw 8 did not finish in
  500 s, since nothing bounds the prover calls of ``cut_tail`` and
  ``_near_square``;
- ``saxl --threads 0`` (a process pool): on 2 cores a warm m = 9 rerun took
  22.0-24.4 s with the pool against 20.6-21.3 s with ``--threads 1``;
- Plancherel draws at n = 10^4 with the flexibility test (``experiment
  --kind flexibility``, about 0.1 s a draw, nearly all in ``rsk_shape``):
  left out so that the other workloads get longer runs within the run
  budget; the samplers are traced only inside pipeline-plancherel, where
  they take about 0.03 s of a pass.

No workload's input depends on ``--seed``, which is only recorded: the saxl
targets are all partitions of m(m+1)/2, and the pipeline corpus is fixed
(see WORKLOADS).
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from worker import NOT_RUNNABLE, partition_count  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

# Inputs of each workload; why each was chosen is recorded in BENCHMARK.json.
# pass_limit_s bounds one pass, item_limit_s one draw.
WORKLOADS = {
    "saxl-cold-m6": {"kind": "saxl", "m": 6, "warm": False, "pass_limit_s": 90},
    "saxl-warm-m7": {"kind": "saxl", "m": 7, "warm": True, "pass_limit_s": 60},
    # A fixed corpus in a fixed order, the run's seed unused: per-draw cost
    # is heavy-tailed (p50 0.6 ms, p99 4 s at n = 105), so batches drawn
    # from the run's seed swung tenfold between seeds, and even shuffling
    # the corpus moved peak RSS by 17% between seeds.
    "pipeline-plancherel": {"kind": "pipeline", "corpus_seed": 20260826,
                            "sizes": [55, 105, 210], "draws_per_n": 50,
                            "item_limit_s": 30, "pass_limit_s": 90},
}
# --smoke: every workload at toy size
SMOKE = {
    "saxl-cold-m6": {"m": 4},
    "saxl-warm-m7": {"m": 5},
    "pipeline-plancherel": {"draws_per_n": 1},
}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
                    "peak_rss_mb": "MB"}
LAYER_UNITS = {"calls": "count", "draws": "count", "nodes": "count",
               "rejected": "count", "oracle_targets": "count", "oracle_leaves": "count",
               "moves_total": "count", "mb": "MB", "s": "s", "frac": "frac",
               "ms_p50": "ms", "ms_tail": "ms", "per_s": "1/s"}
BUILD_LIMIT_S = 600   # cold saxl build of the warm cache, once per checkout
MEASURE_LIMIT_S = 120  # no pass starts after this, and none runs past it
MIN_SETUPS = 10  # setup_s is a median of at least this many interpreter starts


class NotRunnable(Exception):
    """This checkout cannot run the workload; no result is printed."""


def layer_unit(name):
    key = name.split(".", 1)[1]
    for suffix, unit in sorted(LAYER_UNITS.items(), key=lambda kv: -len(kv[0])):
        if key == suffix or key.endswith("_" + suffix):
            return unit
    raise KeyError(name)


# ---------------------------------------------------------------- passes


def spawn(spec, path, timeout, hashseed="0"):
    """Run one pass in a fresh interpreter; None if it failed or timed out."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hashseed)
    spec = dict(spec, src=SRC)
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec), path],
        stdout=subprocess.DEVNULL, env=env, cwd=ROOT)
    try:
        proc.wait(timeout=max(timeout, 0.1))
    except subprocess.TimeoutExpired:
        print("pass timed out after %.0f s" % timeout, file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode == NOT_RUNNABLE:
        raise NotRunnable("kronwork is not importable from %s" % SRC)
    if proc.returncode != 0:
        print("pass exited with code %d" % proc.returncode, file=sys.stderr)
        return None
    with open(path) as fh:
        res = json.load(fh)
    os.remove(path)
    res["setup_s"] = res.pop("ready") - start
    return res


def warm_cache(m, store, rundir):
    """The complete saxl cache for m under `store`, built cold if missing.

    The build is the workload's one-off set-up, like compiling: it is not
    timed, and later runs in the same checkout reuse it.  It is renamed into
    place only after its report proved to be complete, so an existing cache
    is a complete one, whatever file layout the program uses.
    """
    final = os.path.join(store, "saxl-m%d" % m)
    if os.path.isdir(final):
        return final
    build = os.path.join(rundir, "build")
    os.makedirs(build)
    print("building the m=%d cache (once per checkout)" % m, file=sys.stderr)
    res = spawn({"kind": "saxl", "m": m, "cache": build, "trace": False},
                os.path.join(rundir, "build.json"), BUILD_LIMIT_S)
    if res is None or res["failed"]:
        raise NotRunnable("the cold m=%d build did not prove every target" % m)
    os.makedirs(store, exist_ok=True)
    os.replace(build, final)
    return final


def run_workload(name, params, seed, seconds, trace, rundir, store):
    """Passes of one workload; returns (result, report).

    Every pass gets the same input, in a fresh interpreter whose string-hash
    seed is the pass number, so the passes must also agree with each other.
    """
    t0 = time.monotonic()
    spec = dict(params, seed=seed)
    kind = params["kind"]
    if kind == "saxl":
        planned = partition_count(params["m"] * (params["m"] + 1) // 2)
        cache = spec["cache"] = os.path.join(rundir, "cache")
        if params["warm"]:
            # a private copy, checked before any pass: an incomplete one
            # would turn the rerun into a cold run
            warm = warm_cache(params["m"], store, rundir)
            shutil.copytree(warm, cache)
            if len(os.listdir(cache)) != len(os.listdir(warm)):
                raise NotRunnable("the private copy of %s is incomplete" % warm)
    else:
        planned = len(params["sizes"]) * params["draws_per_n"]
    start = time.monotonic()
    passes = []  # (traced, result or None)
    while True:
        k = len(passes)
        pass_spec = dict(spec, trace=bool(trace) and k % 2 == 1)
        if kind == "saxl" and not params["warm"]:
            shutil.rmtree(cache, ignore_errors=True)
            os.makedirs(cache)
        left = start + MEASURE_LIMIT_S - time.monotonic()
        res = spawn(pass_spec, os.path.join(rundir, "pass.json"),
                    min(params["pass_limit_s"], left), hashseed=str(k))
        passes.append((pass_spec["trace"], res))
        elapsed = time.monotonic() - start
        # Stop once another pass (with --trace 1, another untraced/traced
        # pair) would end more than half of it past `seconds`; but run at
        # least two passes, so that they can be compared with each other.
        step = elapsed / (k + 1) * (2 if trace else 1)
        if elapsed >= MEASURE_LIMIT_S or (
                elapsed + step / 2 >= seconds and k >= 1 and (not trace or k % 2 == 1)):
            break
    setups = [r["setup_s"] for t, r in passes if r is not None and not t]
    for _ in range(0 if trace else MIN_SETUPS - len(setups)):
        res = spawn({"kind": "setup", "trace": False}, os.path.join(rundir, "pass.json"),
                    params["pass_limit_s"])
        if res is not None:
            setups.append(res["setup_s"])

    ok = [r for _, r in passes if r is not None]
    if not ok:
        raise RuntimeError("no pass of %s finished" % name)
    attempted = planned * len(passes)
    failed = planned * (len(passes) - len(ok)) + sum(r["failed"] for r in ok)
    # a pass whose outputs differ from the first finished pass failed whole
    failed += sum(r["items"] - r["failed"] for r in ok if r["digest"] != ok[0]["digest"])
    plain = [r for t, r in passes if r is not None and not t]
    if trace:
        metrics = layer_metrics(passes)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "items_per_s": statistics.median(r["items"] / r["wall_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
    report = {
        "workload": name,
        "params": params,
        "passes": len(passes),
        "failed_passes": len(passes) - len(ok),
        "items_per_pass": planned,
        "failed_frac": failed / attempted,
        "untimed_setup_s": start - t0,
        "wall_s_all": [r["wall_s"] for r in plain],
        "setup_s_all": setups,
        "manifest": dict(ok[0]["manifest"], **manifest(seed)),
    }
    report.update(item_stats(plain))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, report


def layer_metrics(passes):
    """Median per-layer metrics over traced passes, plus the tracing overhead.

    Passes alternate untraced, traced on the same input, so each pair gives
    one overhead ratio.
    """
    traced = [r for t, r in passes if t and r is not None]
    if not traced:
        raise RuntimeError("no traced pass finished")
    out = {key: statistics.median(r["layers"][key] for r in traced)
           for key in traced[0]["layers"]}
    ratios = [b["wall_s"] / a["wall_s"] - 1
              for (_, a), (_, b) in zip(passes[0::2], passes[1::2])
              if a is not None and b is not None]
    out["trace.overhead_frac"] = statistics.median(ratios) if ratios else 0.0
    return out


def item_stats(results):
    """Median and tail of the per-item times (each item's median over passes)."""
    if not results or not results[0]["item_s"]:
        return {}
    times = sorted(statistics.median(ts) for ts in zip(*(r["item_s"] for r in results)))
    stats = {"item_samples": len(times),
             "item_ms_p50": 1e3 * statistics.median(times),
             "item_ms_max": 1e3 * times[-1]}
    if len(times) > 10:
        # the highest percentile that still has ten items beyond it
        stats["item_ms_tail"] = 1e3 * times[-11]
        stats["item_tail_pct"] = 100.0 * (len(times) - 10) / len(times)
    extra = results[0]["extra"]
    if extra:
        stats["moves_ratio_mean"] = sum(extra) / len(extra)
    return stats


# ---------------------------------------------------------------- manifest


def calibrate():
    """A fixed pure-Python loop; its time tracks the machine's speed."""
    t0 = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def git_revision():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def manifest(seed):
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# ---------------------------------------------------------------- entry


def bench(name, params, seed, seconds, trace, store=None):
    rundir = os.path.join(WORK, "run-%d" % os.getpid())
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        before = calibrate()
        result, report = run_workload(name, params, seed, seconds, trace, rundir,
                                      store or WORK)
        report["manifest"]["calibration_s"] = [before, calibrate()]
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return result, report


def smoke():
    """Every workload at toy size, traced and not; checks names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    units = {0: END_TO_END_UNITS, 1: {k: layer_unit(k) for k in want[1]}}
    store = os.path.join(WORK, "smoke-%d" % os.getpid())
    problems = []
    seen = 0
    try:
        for w in spec["workloads"]:
            params = dict(WORKLOADS[w["name"]], **SMOKE[w["name"]])
            for trace in (0, 1):
                result, _ = bench(w["name"], params, 1, 1, trace, store)
                got = {k: units[trace][k] for k in result["metrics"]}
                tag = "%s trace=%d" % (w["name"], trace)
                if got != want[trace]:
                    problems.append("%s: metrics %s, want %s" % (tag, got, want[trace]))
                if not result["correct"]:
                    problems.append("%s: %d of %d items failed"
                                    % (tag, result["failed"], result["attempted"]))
                bad = [k for k, v in result["metrics"].items()
                       if not isinstance(v, (int, float)) or not math.isfinite(v)]
                if bad:
                    problems.append("%s: not finite: %s" % (tag, bad))
                print("%s: %s" % (tag, "FAILED" if problems[seen:] else "ok"))
                seen = len(problems)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "kronwork")):
        print("no kronwork sources under %s; run from a checkout's root" % SRC,
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        result, report = bench(args.workload, WORKLOADS[args.workload], args.seed,
                               args.seconds, args.trace)
    except NotRunnable as exc:
        print("not runnable: %s" % exc, file=sys.stderr)
        return 1
    units = END_TO_END_UNITS if not args.trace else None
    result["metrics"] = {k: {"value": v, "unit": units[k] if units else layer_unit(k)}
                         for k, v in result["metrics"].items()}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
