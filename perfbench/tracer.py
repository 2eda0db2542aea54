"""Span tracer for the benchmark's traced runs.

Spans are recorded around the library's public names, from outside the
library: the benchmark replaces each name where its callers look it up with
a wrapper, and puts the original back afterwards. Nothing under ``src/`` is
edited. Spans are aggregated as they close (calls, total and self seconds,
failures per span name), so a traced run keeps a few dozen counters in
memory rather than one record per call; the standard table makes about
600,000 wrapped calls.

A span's self time is its duration minus the time covered by its child
spans. The benchmark is single-threaded, so children are sequential and
their durations add up.
"""

from __future__ import annotations

import time

# Which layer implements each family's kernel, as named in the per-layer metrics.
KERNEL_LAYER = {
    "sf": "core.sf",
    "t2": "core.t2",
    "t4": "core.t4",
    "lagrange": "core.lagrange",
    "t5": "core.t5",
    "master": "master.bounds",
    "cheb": "series.cheb",
    "cheb-lifted": "series.cheb-lifted",
    "cf": "series.cf",
    "cf-lifted": "series.cf-lifted",
    "s": "series.s",
    "t": "series.t",
    "w": "series.w",
    "w-lifted": "series.w-lifted",
}
# No workload evaluates s or t at mpf: the table has no s or t rows, and w
# blends them without going through Approximant.
FLOAT_ONLY = frozenset(("series.s", "series.t"))


class Tracer:
    """Aggregating span recorder; ``spans[name] = [calls, total_s, self_s, failed]``."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list = []
        self.spans: dict = {}

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        frame = [0.0]  # time covered by child spans
        stack = self._stack
        stack.append(frame)
        failed = 1
        t0 = self._clock()
        try:
            out = fn(*args, **kwargs)
            failed = 0
            return out
        finally:
            dt = self._clock() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dt
            rec = self.spans.get(name)
            if rec is None:
                rec = self.spans[name] = [0, 0.0, 0.0, 0]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - frame[0]
            rec[3] += failed


def install(tracer: Tracer):
    """Wrap the library's public names; returns a function that removes the wrappers.

    Wrapped: ``Approximant.__call__`` (one span per family and precision),
    ``oracle_arctan`` (cold or warm, by whether its cache key was seen),
    ``sup_error``, ``certify_bound`` and ``table_entry`` both in their home
    module and as bound in ``cli``, and ``master_params`` in ``master``,
    where ``master_bounds`` and ``families.table_entry`` look it up.
    """
    from mpmath import mp

    from arctancert import cli, families, master, verify

    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    call = tracer.call
    mpf = mp.mpf

    approx_call = families.Approximant.__call__
    span_names = {
        (fam, prec): f"{layer}.{prec}" for fam, layer in KERNEL_LAYER.items() for prec in ("mpf", "float")
    }

    def traced_approx(self, x):
        prec = "mpf" if isinstance(x, mpf) else "float"
        return call(span_names[self.family, prec], approx_call, self, x)

    patch(families.Approximant, "__call__", traced_approx)

    oracle = verify.oracle_arctan
    seen = set()

    def traced_oracle(x, cfg=None):
        # mirrors the oracle's own cache key; its cache is far larger than any workload
        key = (x, cfg)
        if key in seen:
            return call("verify.oracle.warm", oracle, x, cfg)
        seen.add(key)
        return call("verify.oracle.cold", oracle, x, cfg)

    patch(verify, "oracle_arctan", traced_oracle)

    for span, name, owners in (
        ("verify.sup_error", "sup_error", (verify, cli)),
        ("verify.certify_bound", "certify_bound", (verify, cli)),
        ("families.table_entry", "table_entry", (families, cli)),
        ("master.master_params", "master_params", (master,)),
    ):
        fn = getattr(owners[0], name)

        def wrapper(*args, _fn=fn, _span=span, **kwargs):
            return call(_span, _fn, *args, **kwargs)

        for owner in owners:
            patch(owner, name, wrapper)

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


def _stat(spans, name, field):
    rec = spans.get(name)
    return 0 if rec is None else rec[field]


def layer_metrics(spans: dict) -> dict:
    """Per-layer metrics from aggregated spans: name -> (value or None, unit).

    None marks a layer whose wrapper saw no call: unmeasured, not zero.
    """
    out = {}

    def per_call_us(name):
        calls = _stat(spans, name, 0)
        return (_stat(spans, name, 2) / calls * 1e6 if calls else None), "us"

    for layer in KERNEL_LAYER.values():
        for prec in ("mpf", "float"):
            if not (prec == "mpf" and layer in FLOAT_ONLY):
                out[f"{layer}.us_{prec}"] = per_call_us(f"{layer}.{prec}")

    calls = {
        prec: sum(_stat(spans, f"{layer}.{prec}", 0) for layer in KERNEL_LAYER.values())
        for prec in ("float", "mpf")
    }
    evals = calls["float"] + calls["mpf"]
    out["families.approximant.calls.float"] = (calls["float"], "count")
    out["families.approximant.calls.mpf"] = (calls["mpf"], "count")
    out["families.mpf_eval_frac"] = (calls["mpf"] / evals if evals else None, "ratio")

    cold, warm = "verify.oracle.cold", "verify.oracle.warm"
    oracle_calls = _stat(spans, cold, 0) + _stat(spans, warm, 0)
    out["verify.oracle.cold_us"] = per_call_us(cold)
    out["verify.oracle.warm_us"] = per_call_us(warm)
    out["verify.oracle.calls"] = (oracle_calls, "count")
    out["verify.oracle.distinct_frac"] = (_stat(spans, cold, 0) / oracle_calls if oracle_calls else None, "ratio")
    out["verify.oracle.self_s"] = (_stat(spans, cold, 2) + _stat(spans, warm, 2) if oracle_calls else None, "s")

    certs = 0
    for name in ("sup_error", "certify_bound"):
        n_calls = _stat(spans, f"verify.{name}", 0)
        certs += n_calls
        out[f"verify.{name}.calls"] = (n_calls, "count")
        out[f"verify.{name}.self_s"] = (_stat(spans, f"verify.{name}", 2) if n_calls else None, "s")
    out["verify.evals_per_cert"] = (evals / certs if certs else None, "count")

    mp_calls = _stat(spans, "master.master_params", 0)
    out["master.master_params.calls"] = (mp_calls, "count")
    out["master.master_params.s"] = (_stat(spans, "master.master_params", 1) if mp_calls else None, "s")
    out["master.master_params.failed"] = (_stat(spans, "master.master_params", 3), "count")

    te_calls = _stat(spans, "families.table_entry", 0)
    out["families.table_entry.s"] = (_stat(spans, "families.table_entry", 1) if te_calls else None, "s")
    out["cli.self_s"] = (_stat(spans, "cli", 2) if "cli" in spans else None, "s")
    return out
