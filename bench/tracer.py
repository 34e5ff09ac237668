"""Outside-in span tracer for the skiplab benchmark.

The program is not instrumented.  Instead, each traced function is replaced
by a timing wrapper in every ``skiplab.*`` module namespace that holds a
reference to it.  That covers plain module-global calls, re-exports and
``from .linalg import singular_values``-style aliases, and also call-time
imports such as ``from .model import self_attention`` inside a function body,
because those read the module attribute when they run.

Spans are kept in memory as (name, parent, start_ns, end_ns) and written out
once, after the run.  A span's self time is its duration minus the time its
child spans cover; spans nest strictly because the program is single-threaded.
Computed counters (bytes, elements, distinct-input keys) are derived from the
arguments of each call, never from the program's internals.  Computing them
(hashing whole parameter sets, for the distinct-input keys) is the tracer's
own work: it is recorded as a ``trace.count`` span, a child of the caller's
span, so it never lands in a program function's self time.
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import defaultdict

import numpy as np

# Traced functions, as "<module>.<function>" under the skiplab package.
TRACED = (
    "cli.main", "cli.serialize", "cli.write_atomic",
    "analysis.condition_profile_for_params",
    "harness.train", "harness.loss_and_gradients", "harness._forward_batch",
    "harness.optimizer_step",
    "init.init_network",
    "model.network_forward", "model.self_attention", "model.mlp_forward",
    "jacobian.batch_param_jacobian", "jacobian.block_chain_jacobian",
    "jacobian.sa_input_jacobian", "jacobian.mlp_input_jacobian",
    "jacobian.sa_param_jacobian", "jacobian.softmax_jacobian",
    "jacobian.logits_input_jacobian", "jacobian.finite_difference_jacobian",
    "linalg.singular_values", "linalg.kron", "linalg.commutation_matrix",
)

# Span name of the tracer's own counting work.
COUNT_SPAN = "trace.count"

_F8 = np.dtype(float).itemsize


def _digest(arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        if a is None:
            h.update(b"none")
            continue
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.digest()


def _block_arrays(bp):
    return (bp.W_Q, bp.W_K, bp.W_V, bp.W_O,
            bp.mlp_W1, bp.mlp_b1, bp.mlp_W2, bp.mlp_b2)


class Tracer:
    """Wraps the functions in :data:`TRACED` while installed.

    ``install()`` rebinds every reference; ``uninstall()`` restores the
    originals.  Counters and spans accumulate across installs until
    :meth:`reset`.
    """

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self.spans: list[tuple[str, int, int, int] | None] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self.dense_peak_elems = 0

    def reset(self) -> None:
        """Drop every span and counter; the wrappers keep working."""
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()
        self.keys.clear()
        self.dense_peak_elems = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        import scipy.linalg
        import skiplab.cli  # noqa: F401  (loads every skiplab module)

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "skiplab" or name.startswith("skiplab."))]
        for qual in TRACED:
            mod_name, func_name = qual.split(".")
            original = getattr(sys.modules["skiplab." + mod_name], func_name)
            wrapper = self._wrap(qual, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        # The gesvd retry in skiplab.linalg reaches scipy.linalg.svd through
        # a call-time import; count those retries.
        self._patched.append((scipy.linalg, "svd", scipy.linalg.svd))
        scipy.linalg.svd = self._count_fallbacks(scipy.linalg.svd)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _count_fallbacks(self, svd):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if kwargs.get("lapack_driver") == "gesvd":
                counts["linalg.svd_fallbacks"] += 1
            return svd(*args, **kwargs)
        return wrapper

    def _wrap(self, qual: str, fn):
        spans = self.spans
        stack = self._stack
        counter = getattr(self, "_count_" + qual.replace(".", "_"), None)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if counter is not None:
                start = clock()
                counter(*args, **kwargs)
                spans.append((COUNT_SPAN, parent, start, clock()))
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (qual, parent, start, end)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- computed counters (from argument shapes and identities) -----------

    def _dense(self, elems: int) -> None:
        if elems > self.dense_peak_elems:
            self.dense_peak_elems = elems

    def _count_linalg_singular_values(self, m, *args, **kwargs):
        rows, cols = np.shape(m)
        self.counts["linalg.singular_values.elems"] += rows * cols
        self._dense(rows * cols)

    def _count_linalg_kron(self, a, b, *args, **kwargs):
        (ar, ac), (br, bc) = np.shape(a), np.shape(b)
        elems = ar * br * ac * bc
        self.counts["linalg.kron.bytes"] += elems * _F8
        self._dense(elems)

    def _count_linalg_commutation_matrix(self, n, d, *args, **kwargs):
        elems = (n * d) ** 2
        self.counts["linalg.commutation_matrix.bytes"] += elems * _F8
        self._dense(elems)

    def _count_cli_write_atomic(self, path, text, *args, **kwargs):
        self.counts["cli.write_atomic.bytes"] += len(text.encode("utf-8"))

    def _count_model_network_forward(self, x0, params, config, *args, **kwargs):
        arrays = [x0]
        for bp in params.blocks:
            arrays.extend(_block_arrays(bp))
        self.keys["model.network_forward"].add((repr(config), _digest(arrays)))

    def _count_jacobian_sa_input_jacobian(self, trace, layer, *args, **kwargs):
        bt = trace.blocks[layer]
        key = _digest((bt.x_in, *_block_arrays(trace.params.blocks[layer])))
        self.keys["jacobian.sa_input_jacobian"].add((repr(trace.config), layer, key))

    # -- summaries ---------------------------------------------------------

    def span_table(self) -> dict[str, dict[str, int]]:
        """Per name: calls, inclusive ns and self ns over all closed spans."""
        closed = [(i, s) for i, s in enumerate(self.spans) if s is not None]
        covered: dict[int, int] = defaultdict(int)
        for _, (_, parent, start, end) in closed:
            if parent >= 0:
                covered[parent] += end - start
        table: dict[str, dict[str, int]] = {}
        for idx, (qual, _, start, end) in closed:
            row = table.setdefault(qual, {"calls": 0, "ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["ns"] += end - start
            row["self_ns"] += end - start - covered[idx]
        return table

    def distinct(self, qual: str) -> int:
        return len(self.keys[qual])

    def write_spans(self, path) -> None:
        """One line per span: id,parent,name,start_ns,end_ns."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("id,parent,name,start_ns,end_ns\n")
            for idx, span in enumerate(self.spans):
                if span is not None:
                    qual, parent, start, end = span
                    f.write(f"{idx},{parent},{qual},{start},{end}\n")
