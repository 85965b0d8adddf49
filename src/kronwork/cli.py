"""Command line front end.

One subcommand per workbench area, each printing one JSON document.  Exit
code 0 means the computation ran (even when a proof was not found);
nonzero is reserved for usage and IO errors.
"""

import argparse
import json
import os
import sys

from . import characters as ch
from . import partitions as pt
from .certificates import DECODE_ERRORS, Certificate
from .prover import (
    Budget,
    DEFAULT_NODE_BUDGET,
    prove_in_staircase_square,
    verify_saxl,
)
from .verify import verify_certificate

# decomp and samplers are imported by the commands that use them, so that
# the others start without loading them

CACHE_ENV = "KRONWORK_CACHE"


def _fmt(value):
    """Round-trippable JSON payload: big ints and floats as strings."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > 2**53 else value
    if isinstance(value, float):
        return "%.10g" % value
    if isinstance(value, dict):
        return {str(k): _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return value


def _nonnegative(name, value):
    """Turn away a negative count, which would read as zero or as a default."""
    if value < 0:
        raise ValueError("%s must be nonnegative, not %d" % (name, value))
    return value


def _cmd_kron(args):
    factors = []
    if args.factors:
        factors = [pt.parse_partition(t) for t in args.factors.split(";")]
    else:
        for t in (args.lam, args.mu, args.nu):
            if t:
                factors.append(pt.parse_partition(t))
    if len(factors) < 2:
        raise ValueError("kron needs at least two partitions")
    coeff = ch.multi_kronecker(tuple(factors))
    return {
        "factors": [pt.format_partition(f) for f in factors],
        "coefficient": str(coeff),
    }


def _cmd_support(args):
    lam = pt.parse_partition(args.lam)
    supp = ch.tensor_square_support(lam)
    return {
        "lambda": pt.format_partition(lam),
        "support": [pt.format_partition(p) for p in supp],
        "count": len(supp),
        "full": len(supp) == pt.partition_count(pt.size(lam)),
    }


def _cmd_prove(args):
    nu = pt.parse_partition(args.nu)
    budget = Budget(_nonnegative("budget", args.budget))
    cert = prove_in_staircase_square(args.m, nu, budget=budget)
    doc = {
        "m": args.m,
        "nu": pt.format_partition(nu),
        "found": cert is not None,
    }
    if cert is not None:
        ok, msg = verify_certificate(cert)
        doc["verified"] = ok
        doc["message"] = msg
        doc["certificate"] = cert.to_dict()
    return doc


def _cmd_saxl(args):
    return verify_saxl(
        args.m,
        cache_dir=args.cache or os.environ.get(CACHE_ENV),
        budget_nodes=_nonnegative("budget", args.budget),
        threads=_nonnegative("threads", args.threads) or os.cpu_count() or 1,
    )


def _cmd_verify_cert(args):
    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file) as fh:
            text = fh.read()
    try:
        cert = Certificate.from_json(text)
    except DECODE_ERRORS as exc:
        raise ValueError("not a certificate: %r" % (exc,)) from None
    ok, msg = verify_certificate(cert)
    return {
        "ok": ok,
        "message": msg,
        "goal": [pt.format_partition(p) for p in cert.goal],
    }


def _cmd_decompose(args):
    from . import decomp

    if args.smooth and args.i is None:
        raise ValueError("decompose --smooth needs --i")
    if args.i is not None:
        d = decomp.layer_decomposition(args.m, args.k, args.i, smooth=args.smooth)
        return {
            "m": args.m,
            "k": args.k,
            "i": args.i,
            "core": pt.format_partition(d.core),
            "flakes": sorted(d.flakes),
            "replay_ok": d.replay() == pt.staircase(args.m),
        }
    d = decomp.stairgrid(args.m, args.k)
    return {
        "n": args.m,
        "k": args.k,
        "core": pt.format_partition(d.core),
        "flakes": sorted(d.flakes),
        "replay_ok": d.replay() == pt.staircase(args.m),
    }


def _cmd_sample(args):
    from . import samplers as sp

    return vars(sp.sample_report(args.measure, args.n, args.samples, args.seed))


def _cmd_experiment(args):
    from . import decomp
    from . import samplers as sp

    need = "m" if args.kind == "coverage" else "n"
    if getattr(args, need) is None:
        raise ValueError("experiment --kind %s needs --%s" % (args.kind, need))
    sp.check_samples(args.samples)
    if args.kind == "flexibility":
        rep = sp.experiment_flexibility(args.n, args.beta, args.samples, args.seed)
    elif args.kind == "coverage":
        rep = sp.experiment_coverage(args.m, args.measure, args.samples, args.seed)
    elif args.kind == "singleton":
        rep = sp.singleton_column_stats(
            args.n, args.samples, args.seed, measure=args.measure
        )
    elif args.kind == "fourth-power":
        nu = sp.draw("plancherel", args.n, args.seed, 0)
        out = decomp.fourth_power_pipeline(nu)
        ok, msg = verify_certificate(out["certificate"])
        return {
            "n": args.n,
            "seed": args.seed,
            "nu": pt.format_partition(out["nu"]),
            "nu_hat": pt.format_partition(out["nu_hat"]),
            "d": out["d"],
            "ratio": out["ratio"],
            "verified": ok,
            "message": msg,
        }
    return dict(vars(rep), kind=args.kind)


def _cmd_distance(args):
    lam = pt.parse_partition(args.lam)
    mu = pt.parse_partition(args.mu)
    trace = pt.move_trace(lam, mu)
    return {
        "lambda": pt.format_partition(lam),
        "mu": pt.format_partition(mu),
        "distance": pt.blockwise_distance(lam, mu),
        "trace": [pt.format_partition(p) for p in trace],
    }


def _cmd_exceptions(args):
    scan = ch.saxl_exception_scan(args.n)
    covering = sorted(lam for lam, missing in scan.items() if not missing)
    return {
        "n": args.n,
        "covering": [pt.format_partition(p) for p in covering],
        "exception": not covering,
    }


def build_parser():
    ap = argparse.ArgumentParser(prog="kronwork")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kron", help="a Kronecker coefficient by characters")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--mu")
    p.add_argument("--nu")
    p.add_argument("--factors", help="semicolon-separated partition list")
    p.set_defaults(fn=_cmd_kron)

    p = sub.add_parser("support", help="tensor square support of a partition")
    p.add_argument("--lambda", dest="lam", required=True)
    p.set_defaults(fn=_cmd_support)

    p = sub.add_parser("prove", help="certificate search in a staircase square")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(fn=_cmd_prove)

    p = sub.add_parser("saxl", help="prove every partition of m(m+1)/2")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cache")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--threads", type=int, default=0)
    p.set_defaults(fn=_cmd_saxl)

    p = sub.add_parser("verify-cert", help="check a certificate file")
    p.add_argument("--file", required=True, help="path or - for stdin")
    p.set_defaults(fn=_cmd_verify_cert)

    p = sub.add_parser("decompose", help="staircase identities")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--i", type=int)
    p.add_argument("--smooth", action="store_true")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("sample", help="draw seeded random partitions")
    p.add_argument("--measure", choices=("uniform", "plancherel"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("experiment", help="aggregate statistics experiments")
    p.add_argument(
        "--kind",
        choices=("flexibility", "coverage", "singleton", "fourth-power"),
        required=True,
    )
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--measure", choices=("uniform", "plancherel"), default="plancherel")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("distance", help="blockwise distance and move trace")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.set_defaults(fn=_cmd_distance)

    p = sub.add_parser("exceptions", help="tensor square coverage scan")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_exceptions)

    return ap


def dispatch(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        doc = args.fn(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    json.dump(_fmt(doc), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def main():
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
