"""Span tracing of the fermidecay layers from outside the package.

The child process calls `install()` after importing fermidecay.  Every public
function and method of the seven layer modules is replaced by a wrapper that
records one span (id, parent id, name, thread, start, end, size) in an
in-memory array; the spans are written once, by `dump()`, after the timed
part.  Wrappers are rebound under every name the package bound the original
to (module globals, re-exports in `fermidecay/__init__`, dispatch tables such
as `cli.SUITES`), so `bounds.SchwingerEngine` and `grassmann.covariance_matrix`
see the same wrapper as the defining module.

Inner hot helpers are only counted, never spanned, since a span costs about
a microsecond.  The two hottest are not wrapped at all: `monomial_product`
and `GrassmannPolynomial.add` run 3.7M and 2.3M times per
`verify --suite all`, where even a counter added 2.5 s (cProfile stretched
that run from about 7 s to 26 s).

The parent process calls `load()` and `layer_metrics()` on the dumped spans to
get self times and the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from array import array

LAYERS = ("lattice", "model", "fock", "covariance", "grassmann", "bounds", "cli")

NOT_WRAPPED = {"grassmann.monomial_product", "grassmann.GrassmannPolynomial.add"}
# Called too often for a span each; wrapped with an atomic counter instead.
COUNT_ONLY = {
    "lattice.canonical_site", "lattice.mode_index", "lattice.site_index",
    "lattice.spacetime_index", "lattice.periodic_reduce",
    "grassmann.monomial", "grassmann.wick_canonical",
    "grassmann.wick_expectation", "grassmann.GrassmannPolynomial.coefficient",
    "grassmann.GrassmannIndexSpace.index",
    "model.InteractionCoefficients.add",
}
# Dunder methods that mark layer work worth a span.
DUNDERS = {"grassmann.SchwingerEngine.__init__",
           "grassmann.GrassmannPolynomial.__mul__"}


def _first_arg_dim(args, kwargs):
    return args[0].shape[0] if args else 0


def _trials_arg(args, kwargs):
    return kwargs["trials"] if "trials" in kwargs else args[3]


# Size recorded with the span: Fock dimension of an eigensolve, trial count.
SIZES = {
    "fock.diagonalize": _first_arg_dim,
    "fock.log_partition": _first_arg_dim,
    "bounds.det_bound_sample": _trials_arg,
}

FIELDS = 7  # sid, parent, name index, thread index, start, end, size


class Tracer:
    """Span buffer and counters of one traced process."""

    def __init__(self):
        self.buf = array("d")
        self.names: list[str] = []
        self.counters: dict[str, itertools.count] = {}
        self._ids = itertools.count()
        self._threads = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.current_thread() is threading.main_thread():
                self._local.index = 0
                stack = self._main_stack
            else:
                self._local.index = next(self._threads)
                stack = []
            self._local.stack = stack
        return stack

    def span_wrapper(self, fn, name):
        name_idx = len(self.names)
        self.names.append(name)
        size_of = SIZES.get(name)
        buf, ids, main_stack = self.buf, self._ids, self._main_stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not main_stack and main_stack:
                # a pool worker's outermost span belongs to the span the
                # main thread is blocked in
                parent = main_stack[-1]
            else:
                parent = -1
            sid = next(ids)
            size = size_of(args, kwargs) if size_of else 0
            stack.append(sid)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                buf.extend((sid, parent, name_idx, self._local.index,
                            start, end, size))

        return wrapper

    def count_wrapper(self, fn, name):
        counter = self.counters.setdefault(name, itertools.count())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return wrapper

    def wrap(self, fn, name):
        if name in COUNT_ONLY:
            return self.count_wrapper(fn, name)
        return self.span_wrapper(fn, name)

    def counts(self) -> dict[str, int]:
        # next() on an itertools.count returns how often it was advanced
        return {name: next(c) for name, c in self.counters.items()}


def _targets(module):
    """(attribute owner, attribute name, function, span name) for every
    function of the module that gets a wrapper."""
    layer = module.__name__.rsplit(".", 1)[1]
    out = []
    for attr, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not attr.startswith("_"):
            out.append((module, attr, obj, f"{layer}.{attr}"))
        elif inspect.isclass(obj) and not attr.startswith("_"):
            for mattr, meth in vars(obj).items():
                name = f"{layer}.{attr}.{mattr}"
                if inspect.isfunction(meth) and (
                        not mattr.startswith("_") or name in DUNDERS):
                    out.append((obj, mattr, meth, name))
    return out


def install() -> Tracer:
    """Wrap every layer function of the imported fermidecay package."""
    import fermidecay
    from fermidecay import cli  # noqa: F401  (the package does not import it)

    modules = [sys.modules[f"fermidecay.{layer}"] for layer in LAYERS]
    tracer = Tracer()
    replaced = {}
    for module in modules:
        for owner, attr, fn, name in _targets(module):
            if name in NOT_WRAPPED:
                continue
            wrapper = tracer.wrap(fn, name)
            setattr(owner, attr, wrapper)
            if owner is module:
                replaced[id(fn)] = wrapper
    for namespace in [vars(m) for m in modules] + [vars(fermidecay)]:
        for key, value in list(namespace.items()):
            if id(value) in replaced:
                namespace[key] = replaced[id(value)]
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if id(v) in replaced:
                        value[k] = replaced[id(v)]
    return tracer


def dump(tracer: Tracer, directory) -> None:
    with open(f"{directory}/spans.bin", "wb") as fh:
        tracer.buf.tofile(fh)
    with open(f"{directory}/spans.json", "w") as fh:
        json.dump({"names": tracer.names, "counts": tracer.counts()}, fh)


# ---------------------------------------------------------------------------
# analysis (parent process)
# ---------------------------------------------------------------------------

def load(directory):
    import numpy as np

    with open(f"{directory}/spans.json") as fh:
        meta = json.load(fh)
    raw = np.fromfile(f"{directory}/spans.bin", dtype=np.float64)
    return raw.reshape(-1, FIELDS), meta["names"], meta["counts"]


def self_shares(spans, t0: float, t1: float):
    """Self time of every span and the untraced time of the window [t0, t1].

    Within one thread a span's self time is the part of its interval that no
    child covers.  Pool workers run while the main thread waits for them, so
    while k worker threads are inside spans the main thread is charged
    nothing and each worker's innermost span is charged 1/k of the time.
    The self times plus the untraced time add up to t1 - t0.
    """
    import numpy as np

    n = len(spans)
    sid = spans[:, 0].astype(np.int64)
    parent_sid = spans[:, 1].astype(np.int64)
    thread = spans[:, 3].astype(np.int64)
    start, end = spans[:, 4], spans[:, 5]
    row_of = np.full(int(sid.max()) + 1 if n else 1, -1, dtype=np.int64)
    row_of[sid] = np.arange(n)
    parent = np.where(parent_sid >= 0, row_of[np.maximum(parent_sid, 0)], -1)
    same_thread_parent = np.where(
        (parent >= 0) & (thread[np.maximum(parent, 0)] == thread), parent, -1)

    # k(t): worker threads inside a span, a step function over [t0, t1]
    roots = (thread != 0) & (same_thread_parent < 0)
    kt = np.concatenate([start[roots], end[roots]])
    kd = np.concatenate([np.ones(roots.sum()), -np.ones(roots.sum())])
    order = np.lexsort((kd, kt))  # at a tie the end (-1) comes first
    bp = np.concatenate([[t0], kt[order], [t1]])
    k = np.concatenate([[0.0], np.cumsum(kd[order])])
    dt = np.diff(bp)
    idle = np.concatenate([[0.0], np.cumsum(dt * (k == 0))])
    shared = np.concatenate(
        [[0.0], np.cumsum(dt * np.where(k > 0, 1.0 / np.maximum(k, 1), 0.0))])

    share = np.zeros(n)
    untraced = 0.0
    for th in np.unique(np.concatenate([[0], thread])):
        rows = np.flatnonzero(thread == th)
        ev_t = np.concatenate([start[rows], end[rows]])
        is_start = np.concatenate([np.ones(len(rows)), np.zeros(len(rows))])
        ev_row = np.concatenate([rows, rows])
        # ties: ends first; starts parent-first; ends child-first
        tie = np.where(is_start == 1, sid[ev_row], -sid[ev_row])
        order = np.lexsort((tie, is_start, ev_t))
        ev_t, is_start, ev_row = ev_t[order], is_start[order], ev_row[order]
        inner = np.where(is_start == 1, ev_row, same_thread_parent[ev_row])
        seg_start = np.concatenate([[t0], ev_t])
        seg_end = np.concatenate([ev_t, [t1]])
        seg_span = np.concatenate([[-1], inner])
        cum = idle if th == 0 else shared
        weight = np.interp(seg_end, bp, cum) - np.interp(seg_start, bp, cum)
        traced = seg_span >= 0
        share += np.bincount(seg_span[traced], weights=weight[traced],
                             minlength=n)
        if th == 0:
            untraced = float(weight[~traced].sum())
    return share, parent, untraced


# Time metrics that cover a span's whole subtree: spans named in the first
# set start the subtree, spans named in the second set cut it off again.
BUILD = {"fock.build_h0", "fock.build_interaction", "fock.build_lambda_term",
         "fock.build_hamiltonian"}
DIAG = {"fock.diagonalize", "fock.log_partition"}
SUBTREE_TIMES = {
    "fock.build_s": (BUILD, set()),
    "fock.diag_s": (DIAG, set()),
    "fock.expect_s": ({"fock.correlation", "fock.thermal_average"}, BUILD | DIAG),
    "grassmann.berezin_s": ({"grassmann.berezin_gaussian"}, set()),
    "grassmann.scan_s": ({"grassmann.SchwingerEngine.denominator",
                          "grassmann.SchwingerEngine.numerator"}, set()),
    "covariance.matrix_s": ({"covariance.covariance_matrix"}, set()),
    "covariance.value_s": ({"covariance.covariance_value"}, set()),
    "bounds.det_sample_s": ({"bounds.det_bound_sample"}, set()),
    "bounds.contour_s": ({"bounds.schwinger_contour_check"}, set()),
    "bounds.taylor_s": ({"bounds.verify_taylor_bounds"}, set()),
}


def layer_metrics(spans, names, counts, t0: float, t1: float) -> dict:
    """Per-layer calls and self times plus the named work counters."""
    import numpy as np

    share, parent, untraced = self_shares(spans, t0, t1)
    name_idx = spans[:, 2].astype(np.int64)
    layer_of = np.array([n.split(".", 1)[0] for n in names] or ["-"])
    span_layer = layer_of[name_idx] if len(spans) else np.array([], dtype=str)
    calls_by_name = np.bincount(name_idx, minlength=len(names))
    calls = dict(zip(names, calls_by_name.tolist()))
    calls.update(counts)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = sum(c for n, c in calls.items()
                                    if n.split(".", 1)[0] == layer)
        out[f"{layer}.self_s"] = float(share[span_layer == layer].sum())

    # one pass from parents to children (a span is stored when it ends, so
    # every parent comes after its children)
    metric_names = list(SUBTREE_TIMES)
    set_bits = [0] * len(names)
    clear_bits = [0] * len(names)
    for b, metric in enumerate(metric_names):
        starts, stops = SUBTREE_TIMES[metric]
        for i, n in enumerate(names):
            if n in starts:
                set_bits[i] |= 1 << b
            if n in stops:
                clear_bits[i] |= 1 << b
    masks = [0] * len(spans)
    parents = parent.tolist()
    idx = name_idx.tolist()
    for row in range(len(spans) - 1, -1, -1):
        p = parents[row]
        inherited = masks[p] if p >= 0 else 0
        i = idx[row]
        masks[row] = (inherited & ~clear_bits[i]) | set_bits[i]
    masks = np.array(masks, dtype=np.int64)
    for b, metric in enumerate(metric_names):
        out[metric] = float(share[(masks >> b) & 1 == 1].sum())

    def n_calls(*keys):
        return int(sum(calls.get(k, 0) for k in keys))

    def sizes(name):
        if name not in names:
            return np.zeros(0)
        return spans[name_idx == names.index(name), 6]

    dims = np.concatenate([sizes(n) for n in sorted(DIAG)])
    out["fock.expectations"] = n_calls("fock.correlation", "fock.thermal_average")
    out["fock.dim_max"] = int(dims.max()) if len(dims) else 0
    out["fock.dim3_sum"] = float(np.sum(dims**3))
    out["grassmann.berezin_calls"] = n_calls("grassmann.berezin_gaussian")
    out["grassmann.poly_mults"] = n_calls("grassmann.GrassmannPolynomial.__mul__")
    out["grassmann.wick_evals"] = n_calls("grassmann.wick_canonical",
                                          "grassmann.wick_expectation")
    out["grassmann.engine_builds"] = n_calls("grassmann.SchwingerEngine.__init__")
    out["covariance.matrix_calls"] = n_calls("covariance.covariance_matrix")
    out["covariance.value_calls"] = n_calls("covariance.covariance_value")
    out["bounds.det_trials"] = int(sizes("bounds.det_bound_sample").sum())
    out["trace.untraced_s"] = untraced
    out["trace.wall_s"] = t1 - t0
    out["trace.spans"] = len(spans)
    return out
