"""Spans around calls into kronwork's public functions, recorded from outside.

`install()` replaces each wrapped function with a timing wrapper wherever a
``kronwork.*`` module (or the `Certificate` class) holds a reference to it,
so calls made through names imported into other modules are seen too.
Spans live in memory as ``[layer, name, start, end, parent, info]`` and are
turned into per-layer metrics by `Tracer.metrics` when the pass ends.

`partitions` is not wrapped: its helpers run millions of times per pass, so a
wrapper would mostly time itself.  For the same reason `characters.class_size`
and `characters.centralizer_order` are left alone; their time shows up as
self time of whichever layer called them.
"""

import sys
import time

# layer -> the public functions the workloads reach from outside the layer
WRAPPED = {
    "characters": ("multi_kronecker",),
    "prover": ("prove_in_staircase_square", "verify_saxl"),
    "verify": ("verify_certificate",),
    "decomp": ("fourth_power_pipeline",),
    "samplers": ("draw", "rsk_shape"),
    "cli": ("dispatch",),
}
# what `layer_metrics` needs from a call, kept as the span's info: f(args, result)
INFO_OF = {
    "multi_kronecker": lambda args, out: out,
    "prove_in_staircase_square": lambda args, out: out,
    "verify_certificate": lambda args, out: (out[0], args[0]),
    "fourth_power_pipeline": lambda args, out: out["d"],
    "from_json": lambda args, out: len(args[0]),
    "to_json": lambda args, out: len(out),
}

LAYER, NAME, START, END, PARENT, INFO = range(6)


class Tracer:
    """In-memory spans of one pass; `install` starts recording."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, layer, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info_of = INFO_OF.get(name)

        def wrapper(*args, **kwargs):
            rec = [layer, name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if info_of is not None:
                rec[INFO] = info_of(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        import kronwork.certificates as certificates

        mods = {k[len("kronwork."):]: m for k, m in sys.modules.items()
                if k.startswith("kronwork.") and m is not None}
        for layer, names in WRAPPED.items():
            for name in names:
                # a function a later version removes is simply not traced
                fn = getattr(mods.get(layer), name, None)
                if fn is None:
                    continue
                wrapper = self.wrap(layer, name, fn)
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
        cls = certificates.Certificate
        from_json = cls.__dict__.get("from_json")
        if isinstance(from_json, staticmethod):
            cls.from_json = staticmethod(
                self.wrap("certificates", "from_json", from_json.__func__))
        if "to_json" in cls.__dict__:
            cls.to_json = self.wrap("certificates", "to_json", cls.__dict__["to_json"])

    def metrics(self):
        """Per-layer metrics of everything recorded so far."""
        return layer_metrics(self.spans)


def _tail(sorted_values):
    """Highest order statistic with at least ten values beyond it."""
    if len(sorted_values) < 11:
        return sorted_values[-1] if sorted_values else 0.0
    return sorted_values[-11]


def _cert_nodes(cert):
    nodes = oracle = 0
    todo = [cert]
    while todo:
        c = todo.pop()
        nodes += 1
        if not c.children and c.kind == "OracleLeaf":
            oracle += 1
        todo.extend(c.children)
    return nodes, oracle


def layer_metrics(spans):
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]

    def outer(rec):
        return rec[PARENT] < 0 or spans[rec[PARENT]][LAYER] != rec[LAYER]

    def dur(rec):
        return rec[END] - rec[START]

    def self_time(pred):
        return sum(dur(r) - child_time[i] for i, r in enumerate(spans) if pred(r))

    def of(layer):
        return [r for r in spans if r[LAYER] == layer and outer(r)]

    def named(name):
        return [r for r in spans if r[NAME] == name]

    ch_outer = of("characters")
    proves = named("prove_in_staircase_square")
    found = [r[INFO] for r in proves if r[INFO] is not None]
    prove_ms = sorted(1e3 * dur(r) for r in proves)
    decodes = named("from_json")
    encodes = named("to_json")
    # a span cut short by the per-item time limit has no info
    verifies = [r for r in of("verify") if r[INFO] is not None]
    nodes = oracle_leaves = 0
    for r in verifies:
        n, o = _cert_nodes(r[INFO][1])
        nodes += n
        oracle_leaves += o
    verify_busy = sum(dur(r) for r in verifies)
    pipelines = named("fourth_power_pipeline")
    saxl = named("verify_saxl")

    def frac(num, den):
        return num / den if den else 0.0

    return {
        "characters.calls": len(ch_outer),
        "characters.busy_s": sum(dur(r) for r in ch_outer),
        "characters.positive_frac": frac(
            sum(1 for r in ch_outer if r[INFO] and r[INFO] > 0), len(ch_outer)),
        "prover.prove_calls": len(proves),
        "prover.prove_s": sum(dur(r) for r in proves),
        "prover.self_s": self_time(lambda r: r[NAME] == "prove_in_staircase_square"),
        "prover.found_frac": frac(len(found), len(proves)),
        "prover.target_ms_p50": prove_ms[len(prove_ms) // 2] if prove_ms else 0.0,
        "prover.target_ms_tail": _tail(prove_ms),
        "prover.oracle_targets": sum(1 for c in found if _cert_nodes(c)[1]),
        "prover.verify_saxl_s": sum(dur(r) for r in saxl),
        "prover.driver_self_s": self_time(lambda r: r[NAME] == "verify_saxl"),
        "certificates.decode_calls": len(decodes),
        "certificates.decode_s": sum(dur(r) for r in decodes),
        "certificates.decode_mb": sum(r[INFO] for r in decodes) / 1e6,
        "certificates.encode_calls": len(encodes),
        "certificates.encode_s": sum(dur(r) for r in encodes),
        "certificates.encode_mb": sum(r[INFO] for r in encodes) / 1e6,
        "certificates.nodes": nodes,
        "certificates.oracle_leaves": oracle_leaves,
        "verify.calls": len(verifies),
        "verify.busy_s": verify_busy,
        "verify.self_s": self_time(lambda r: r[LAYER] == "verify"),
        "verify.nodes_per_s": frac(nodes, verify_busy),
        "verify.rejected": sum(1 for r in verifies if not r[INFO][0]),
        "decomp.pipeline_calls": len(pipelines),
        "decomp.pipeline_s": sum(dur(r) for r in pipelines),
        "decomp.self_s": self_time(lambda r: r[LAYER] == "decomp"),
        "decomp.moves_total": sum(r[INFO] for r in pipelines if r[INFO] is not None),
        "samplers.draws": len(named("draw")),
        "samplers.draw_s": sum(dur(r) for r in named("draw")),
        "samplers.rsk_s": sum(dur(r) for r in named("rsk_shape")),
        "cli.dispatch_s": sum(dur(r) for r in named("dispatch")),
        "cli.self_s": self_time(lambda r: r[LAYER] == "cli"),
    }
