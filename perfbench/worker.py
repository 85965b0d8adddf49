"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py SPEC_JSON RESULT_PATH

`run.py` starts this once per pass.  It imports kronwork, notes the moment
it is ready (the end of set-up), runs the pass, checks every output with the
independent helpers below, and writes one JSON result to RESULT_PATH.  With
``"trace": true`` in the spec it first wraps kronwork's public functions
(see `spans.py`) and adds the per-layer metrics to the result.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import signal
import sys
import time

NOT_RUNNABLE = 3  # exit code: this checkout cannot run the workload


def main():
    spec = json.loads(sys.argv[1])
    import kronwork.cli  # noqa: F401  (imports every kronwork module)

    ready = time.monotonic()
    src = os.path.realpath(spec["src"]) + os.sep
    for name, mod in list(sys.modules.items()):
        if name.startswith("kronwork.") and not os.path.realpath(mod.__file__).startswith(src):
            print("kronwork was imported from %s, not from %s" % (mod.__file__, src),
                  file=sys.stderr)
            sys.exit(NOT_RUNNABLE)
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    result = PASSES[spec["kind"]](spec)
    result["ready"] = ready
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["manifest"] = _manifest()
    if tracer is not None:
        result["layers"] = tracer.metrics()
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)


def _manifest():
    import inspect

    from kronwork import characters, decomp, prover

    # lenient, so that a renamed setting does not stop the benchmark
    attempt = inspect.signature(decomp.fourth_power_pipeline).parameters.get("attempt_nodes")
    return {
        "oracle_ceiling": getattr(characters, "DEFAULT_ORACLE_CEILING", None),
        "node_budget": getattr(prover, "DEFAULT_NODE_BUDGET", None),
        "pipeline_attempt_nodes": attempt.default if attempt else None,
    }


# ---------------------------------------------------------------- passes


def saxl_pass(spec):
    """`kronwork saxl` through the CLI; the report must match byte for byte."""
    from kronwork import cli

    m = spec["m"]
    argv = ["saxl", "--m", str(m), "--threads", "1", "--cache", spec["cache"]]
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.dispatch(argv)
    wall = time.perf_counter() - t0
    items = partition_count(m * (m + 1) // 2)
    ok = code == 0 and out.getvalue() == expected_saxl_report(m)
    return {"wall_s": wall, "items": items, "failed": 0 if ok else items,
            "item_s": [], "digest": "", "extra": []}


def pipeline_pass(spec):
    """Plancherel draw, fourth-power pipeline, verifier, per draw.

    The draws are a fixed corpus, in a fixed order (see WORKLOADS in run.py).
    """
    from kronwork import decomp, samplers, verify

    corpus_seed = spec["corpus_seed"]

    def work(key):
        n, i = key
        nu = samplers.draw("plancherel", n, corpus_seed, i)
        out = decomp.fourth_power_pipeline(nu)
        ok, _ = verify.verify_certificate(out["certificate"])
        return nu, out, ok

    def check(key, res):
        nu, out, ok = res
        n = key[0]
        xi = irregular_staircase(n)
        trace = out["trace"]
        good = (ok and is_partition(nu, n) and out["nu"] == nu
                and out["certificate"].goal == (out["nu_hat"], xi, xi)
                and trace[0] == out["nu_hat"] and trace[-1] == nu
                and out["d"] == len(trace) - 1
                and all(is_single_move(a, b) for a, b in zip(trace, trace[1:])))
        record = [n, key[1], list(nu), list(out["nu_hat"]), out["d"]]
        return good, record, out["d"] / math.sqrt(2 * n)

    keys = [(n, i) for n in spec["sizes"] for i in range(spec["draws_per_n"])]
    return _item_loop(keys, work, check, spec["item_limit_s"])


def setup_only(spec):
    """Nothing after set-up: extra samples of setup_s for runs with few passes."""
    return {"wall_s": 0.0, "items": 0, "failed": 0, "item_s": [], "digest": "", "extra": []}


PASSES = {"saxl": saxl_pass, "pipeline": pipeline_pass, "setup": setup_only}


class ItemTimeout(BaseException):
    """Raised by SIGALRM when one item runs past its limit.

    A BaseException, so no handler inside kronwork can swallow it.
    """


def _on_alarm(signum, frame):
    raise ItemTimeout()


def _item_loop(keys, work, check, limit):
    """Time `work` per key, with a per-item limit, then check it untimed."""
    signal.signal(signal.SIGALRM, _on_alarm)
    times, records, extra = [], [], []
    failed = 0
    for key in keys:
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            res = work(key)
        except ItemTimeout:
            res = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        times.append(time.perf_counter() - t0)
        if res is None:
            failed += 1
            records.append([key, "timeout"])
            continue
        good, record, x = check(key, res)
        failed += not good
        records.append(record)
        if x is not None:
            extra.append(x)
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    return {"wall_s": sum(times), "items": len(times), "failed": failed,
            "item_s": times, "digest": digest, "extra": extra}


# ------------------------------------------- independent reference checks


def partition_count(n):
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            p[total] += p[total - part]
    return p[n]


def expected_saxl_report(m):
    n = m * (m + 1) // 2
    p = partition_count(n)
    doc = {"complete": True, "failed": [], "m": m, "proved": p, "size": n, "total": p}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def is_partition(lam, n):
    return (isinstance(lam, tuple) and all(isinstance(r, int) and r > 0 for r in lam)
            and all(a >= b for a, b in zip(lam, lam[1:])) and sum(lam) == n)


def irregular_staircase(n):
    """(m + k, m - 1, ..., 1) for n = m(m+1)/2 + k with m maximal."""
    m = 0
    while (m + 1) * (m + 2) // 2 <= n:
        m += 1
    rows = list(range(m, 0, -1))
    rows[0] += n - m * (m + 1) // 2
    return tuple(rows)


def is_single_move(a, b):
    """b is a partition reached from a by moving exactly one box."""
    if not is_partition(b, sum(a)):
        return False
    width = max(len(a), len(b))
    diff = [(b[i] if i < len(b) else 0) - (a[i] if i < len(a) else 0) for i in range(width)]
    return sorted(d for d in diff if d) == [-1, 1]



if __name__ == "__main__":
    main()
