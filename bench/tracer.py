"""Layer spans taken from outside the program.

``Tracer.install()`` wraps the freestein names where the modules bind
them (``from .x import f`` copies a function into the importing module,
so e.g. ``dirichlet_gram`` is wrapped in ``freestein.stein`` and
``freestein.poincare``), a few class methods, and ``numpy.linalg.eigh``
/ ``eigvalsh``, whose time goes to the eigensolve layer of the
enclosing span's module.  Every wrapped call opens a frame on a stack;
on exit its self time is its duration minus the time its child frames
took.  Coarse layers are kept as spans with parent ids; hot leaves
(moments, partitions, sharp products) are summed per enclosing span, so
that a few hundred thousand calls stay cheap.  Everything stays in
memory until ``spans_obj`` is written out at the end.
"""

from __future__ import annotations

import math
import os
import time
from collections import defaultdict

# module prefix of the enclosing layer -> layer an eigensolve counts to;
# eigensolves elsewhere (validate_state) stay in the enclosing self time
EIG_LAYERS = {
    "stein": "stein.eig",
    "poincare": "poincare.eig",
    "matrixmodels": "matrixmodels.norm_eig",
}

# relative cutoff for the effective condition number, the solvers' PINV_TOL
COND_CUTOFF = 1e-10


def catalan(m):
    return math.comb(2 * m, m) // (m + 1)


def effective_cond(gram):
    """Largest over smallest eigenvalue above the relative pinv cutoff."""
    import numpy as np

    eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    top = float(eigs.max(initial=0.0))
    kept = eigs[eigs > COND_CUTOFF * top]
    return top / float(kept.min()) if top > 0 and kept.size else 1.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [id, parent, op, layer, t0, t1, self_s]
        self.leaves = defaultdict(lambda: [0, 0.0])  # (span, layer) -> [calls, self_s]
        self.counts = defaultdict(float)
        self.inclusive = defaultdict(float)
        self.grams = []
        self.op = None
        self._stack = []  # [layer, t0, child_s, span_id]
        self._depth = defaultdict(int)
        self._patches = []

    # -- frames -------------------------------------------------------

    def _enter(self, layer, coarse):
        span_id = None
        if coarse:
            span_id = len(self.spans)
            self.spans.append(None)
        self._depth[layer] += 1
        self._stack.append([layer, self.clock(), 0.0, span_id])

    def _exit(self):
        t1 = self.clock()
        layer, t0, child, span_id = self._stack.pop()
        dur = t1 - t0
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.inclusive[layer] += dur
        parent = self._parent_span()
        if self._stack:
            self._stack[-1][2] += dur
        if span_id is None:
            leaf = self.leaves[(parent, layer)]
            leaf[0] += 1
            leaf[1] += dur - child
        else:
            self.spans[span_id] = [span_id, parent, self.op, layer, t0, t1,
                                   dur - child]

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return None

    def call(self, layer, fn, args, kwargs, coarse=True):
        self._enter(layer, coarse)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit()

    # -- patching -----------------------------------------------------

    def patch(self, owner, name, layer, coarse=True, before=None, after=None):
        """Replace ``owner.name`` by a wrapper that opens a ``layer`` frame
        (or only counts, when ``layer`` is None)."""
        original = getattr(owner, name)
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            if layer is None:
                return original(*args, **kwargs)
            result = tracer.call(layer, original, args, kwargs, coarse)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def install(self):
        import numpy as np

        import freestein.algebra as algebra
        import freestein.cli as cli
        import freestein.clt as clt
        import freestein.matrixmodels as mm
        import freestein.poincare as poincare
        import freestein.serialize as serialize
        import freestein.states as states
        import freestein.stein as stein

        count = self.counts

        def inc(key):
            def before(*args, **kwargs):
                count[key] += 1
            return before

        self.patch(cli, "main", "cli.main")

        def in_bytes(path, what):
            count["serialize.in_bytes"] += os.path.getsize(path)

        # input files are JSON-decoded in the CLI's private reader
        self.patch(cli, "_read_json", "serialize.parse", before=in_bytes)
        for name in ("table_from_obj", "cumulants_from_obj",
                     "cumulant_state_from_obj", "ensemble_from_obj",
                     "poly_from_obj", "tuple_from_obj"):
            self.patch(serialize, name, "serialize.parse")

        def out_bytes(result, *args, **kwargs):
            count["serialize.out_bytes"] += len(result.encode())

        self.patch(serialize, "dumps", "serialize.dumps", after=out_bytes)
        for name in ("table_to_obj", "stein_report_obj", "poincare_report_obj",
                     "kernel_to_obj", "tensor_to_obj", "tuple_to_obj"):
            self.patch(serialize, name, "serialize.dumps")

        self.patch(cli, "validate_state", "states.validate")

        def gram(result, phi, words):
            self.grams.append(result.copy())

        for mod in (stein, poincare):
            self.patch(mod, "dirichlet_gram", "states.dirichlet_gram",
                       after=gram)
        self.patch(poincare, "covariance_gram", "states.covariance_gram")
        for mod in (states, stein):
            self.patch(mod, "tensor_moment", "states.tensor_moment",
                       coarse=False)

        def visited(m):
            count["partitions.visited"] += catalan(m)

        self.patch(states, "noncrossing_partitions", "partitions",
                   coarse=False, before=visited)

        def memo_miss(state, word):
            memo = getattr(state, "_memo", None)
            if memo is None or tuple(word) not in memo:
                count["states.moment_evals"] += 1

        self.patch(states.CumulantState, "moment", "states.moment",
                   coarse=False, before=memo_miss)
        self.patch(states.MomentTable, "moment", None,
                   before=inc("states.table_lookups"))
        self.patch(algebra.TensorPoly, "sharp", "algebra.sharp", coarse=False)
        for mod in (algebra, stein):
            self.patch(mod, "partial_derivative", None,
                       before=inc("algebra.partial_derivative_calls"))
        for mod in (cli, stein):
            self.patch(mod, "explicit_kernel", "algebra.explicit_kernel")

        self.patch(cli, "discrepancy_bounds", "stein.discrepancy_bounds")
        for mod in (stein, clt):
            self.patch(mod, "minimal_kernel", "stein.minimal_kernel")
        self.patch(stein, "explicit_kernel_distance_sq", "stein.explicit_distance")
        for mod in (cli, clt):
            self.patch(mod, "poincare_lower_bound", "poincare.lower_bound")

        def rows(result, *args, **kwargs):
            count["clt.rows"] += len(result)

        self.patch(cli, "clt_rate_table", "clt.rate_table", after=rows)

        def mc_work(config, max_order):
            # computed, not measured: one N^3 complex GEMM (8 N^3 flop) per
            # half-length prefix, one N^2 trace contraction per word
            n, size = config.nvars, config.size
            half = (max_order + 1) // 2
            prefixes = sum(n ** k for k in range(1, half + 1))
            words = sum(n ** k for k in range(1, max_order + 1))
            count["matrixmodels.samples"] += config.samples
            count["matrixmodels.trace_gflop"] += config.samples * (
                prefixes * 8 * size ** 3 + words * 8 * size ** 2) / 1e9

        self.patch(cli, "mc_moment_table", "matrixmodels.mc_table",
                   before=mc_work)
        for name in ("sample_gue", "eval_poly_matrices"):
            self.patch(mm, name, "matrixmodels.sample", coarse=False)

        for name in ("eigh", "eigvalsh"):
            self._patch_eig(np.linalg, name)

    def _patch_eig(self, linalg, name):
        original = getattr(linalg, name)
        tracer = self

        def wrapper(a, *args, **kwargs):
            enclosing = tracer._stack[-1][0] if tracer._stack else ""
            layer = EIG_LAYERS.get(enclosing.split(".")[0])
            if layer is None:
                return original(a, *args, **kwargs)
            if layer == "poincare.eig":
                key = "poincare.eig_max_dim"
                tracer.counts[key] = max(tracer.counts[key], len(a))
            return tracer.call(layer, original, (a,) + args, kwargs)

        wrapper.__wrapped__ = original
        setattr(linalg, name, wrapper)
        self._patches.append((linalg, name, original))

    # -- per-op bookkeeping -------------------------------------------

    def op_self_check(self, op):
        """(sum of layer self times, root cli.main duration) of one op."""
        roots = [s for s in self.spans if s and s[2] == op and s[1] is None]
        ids = {s[0] for s in self.spans if s and s[2] == op}
        total = sum(s[6] for s in self.spans if s and s[2] == op)
        total += sum(v[1] for (parent, _), v in self.leaves.items()
                     if parent in ids)
        root = sum(s[5] - s[4] for s in roots)
        return total, root

    def self_by_layer(self):
        out = defaultdict(float)
        for s in self.spans:
            if s:
                out[s[3]] += s[6]
        for (_, layer), (_, self_s) in self.leaves.items():
            out[layer] += self_s
        return out

    def calls_by_layer(self):
        out = defaultdict(int)
        for s in self.spans:
            if s:
                out[s[3]] += 1
        for (_, layer), (calls, _) in self.leaves.items():
            out[layer] += calls
        return out

    def spans_obj(self):
        return {
            "spans": [dict(zip(("id", "parent", "op", "layer", "t0", "t1",
                                "self_s"), s)) for s in self.spans if s],
            "leaves": [{"parent": p, "layer": layer, "calls": c, "self_s": t}
                       for (p, layer), (c, t) in self.leaves.items()],
        }
