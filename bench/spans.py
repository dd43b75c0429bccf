"""Span tracing of `wpsc` layers from outside the program.

Every public entry point listed in ``TARGETS`` is wrapped at every module
binding that refers to it: the package imports with ``from .x import y``,
so ``wpsc.cli.spectral_clustering`` is a binding of its own next to
``wpsc.graph.spectral_clustering``. Third-party functions (``cho_solve``,
``eigh``) are wrapped only at the named module's binding, so the SSC and
MERA solves stay apart. A target that no longer exists is reported as
unmeasured. Spans are kept in memory; self time is a span's duration
minus the time its child spans cover.
"""

import inspect
import sys
import time

# span name -> candidate (module, attribute, scope); scope "all" wraps every
# binding of the object in the package, "own" only the named one, "method"
# the attribute of a class (given as "Class.method").
TARGETS = {
    "bundle.load": [("wpsc.bundle", "load_bundle", "all")],
    "datasets.split": [("wpsc.datasets", "split", "all")],
    "datasets.column_normalize": [("wpsc.datasets", "column_normalize", "all")],
    "wavelet.node_matrix": [("wpsc.wavelet", "node_matrix", "all")],
    "pipeline.five_views": [("wpsc.pipeline", "five_views", "all")],
    "pipeline.run_wp_mera": [("wpsc.pipeline", "run_wp_mera", "all")],
    "pipeline.single_run": [("wpsc.pipeline", "SingleViewPipeline.run", "method")],
    "solvers.solve": [("wpsc.solvers", "SolverSpec.solve", "method")],
    "solvers.solve_ssc": [("wpsc.solvers", "solve_ssc", "all")],
    "solvers.cho_solve": [("wpsc.solvers", "cho_solve", "own")],
    "mera.mera_mvsc": [("wpsc.mera", "mera_mvsc", "all")],
    "mera.mera_fit": [("wpsc.mera", "mera_fit", "all")],
    "mera.mera_contract": [("wpsc.mera", "mera_contract", "all")],
    "mera.cho_solve": [("wpsc.mera", "cho_solve", "own")],
    "graph.affinity": [("wpsc.graph", "affinity_from_representation", "all")],
    "graph.spectral_clustering": [("wpsc.graph", "spectral_clustering", "all")],
    "graph.eigh": [("wpsc.graph", "eigh", "own")],
    "graph.kmeans": [("wpsc.graph", "kmeans", "all")],
    "subspace.estimate_bases": [("wpsc.subspace", "estimate_bases", "all")],
    "subspace.assign": [("wpsc.subspace", "assign_oos_batch", "all"),
                        ("wpsc.pipeline", "assign_multiview_batch", "all")],
    "subspace.average_affinity": [("wpsc.subspace", "average_affinity", "all")],
    "selection.select_subband": [("wpsc.selection", "select_subband", "all")],
    "selection.grid_search": [("wpsc.selection", "grid_search", "all")],
    "metrics.evaluate": [("wpsc.metrics", "evaluate", "all")],
    "cli.run_experiment": [("wpsc.cli", "run_experiment", "all")],
    "cli.emit_report": [("wpsc.cli", "emit_report", "all")],
}


def bindings(fn):
    """(module, name) of every binding of ``fn`` in the imported ``wpsc``
    modules, the package itself included."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "wpsc" or n.startswith("wpsc."))]
    return [(m, k) for m in modules for k, v in list(vars(m).items()) if v is fn]


def _arg(fn, name, args, kwargs):
    """Value of parameter ``name`` in a call of ``fn``, defaults applied."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments.get(name)


# span name -> note(fn, args, kwargs, result) -> value kept on the span
NOTES = {
    "solvers.solve_ssc": lambda fn, a, kw, r: _arg(fn, "max_iter", a, kw),
    "subspace.assign": lambda fn, a, kw, r: len(r),
    "selection.select_subband":
        lambda fn, a, kw, r: (len(r.evaluated), 1 + 4 * _arg(fn, "J", a, kw)),
    "selection.grid_search": lambda fn, a, kw, r: len(r[1]),
    "cli.emit_report": lambda fn, a, kw, r: sum(p.stat().st_size for p in r),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "note")

    def __init__(self, name, parent):
        self.name, self.parent = name, parent
        self.start = self.end = 0.0
        self.note = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans around wrapped calls; ``install``/``remove`` patch and
    restore the bindings, so one process can alternate traced and untraced
    runs."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.unmeasured = []

    def span(self, name, fn, /, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; returns its result."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        note = NOTES.get(name)
        if note is not None:
            span.note = note(fn, args, kwargs, result)
        return result

    def _wrapper(self, name, fn):
        def wrapped(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        wrapped.__wrapped__ = fn
        return wrapped

    def install(self):
        """Wrap every target binding; names not found become unmeasured."""
        self.unmeasured = []
        for name, candidates in TARGETS.items():
            found = False
            for mod_name, attr, scope in candidates:
                owner = sys.modules.get(mod_name)
                if scope == "method":
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name, None)
                fn = getattr(owner, attr, None)
                if fn is None:
                    continue
                found = True
                wrapped = self._wrapper(name, fn)
                targets = bindings(fn) if scope == "all" else [(owner, attr)]
                for where, key in targets:
                    self._patch(where, key, wrapped)
            if not found:
                self.unmeasured.append(name)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def remove(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches = []

    def descendants(self, roots):
        """Every span below ``roots``, in recording order."""
        keep = {id(r) for r in roots}
        result = []
        for s in self.spans:  # parents are recorded before their children
            if s.parent is not None and id(s.parent) in keep:
                keep.add(id(s))
                result.append(s)
        return result


def self_time(spans):
    """Self seconds per span name: duration minus the child spans' time."""
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[id(s.parent)] = child_time.get(id(s.parent), 0.0) + s.duration
    out = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.duration - child_time.get(id(s), 0.0)
    return out


def outermost(spans):
    """Spans by name, leaving out those nested in a same-named span."""
    out = {}
    for s in spans:
        p = s.parent
        while p is not None and p.name != s.name:
            p = p.parent
        if p is None:
            out.setdefault(s.name, []).append(s)
    return out


LAYERS = ("bundle", "datasets", "wavelet", "pipeline", "solvers", "mera",
          "graph", "subspace", "selection", "metrics", "cli")


def layer_metrics(tracer, roots, mera_iterations):
    """Per-layer metrics per traced run, as {name: (value, unit)}.

    ``roots`` are the spans around each traced run_experiment+emit_report;
    ``mera_iterations`` is the MERA outer iteration count per run, from
    report.json. Metrics built on an unmeasured target read 0 and are
    listed in ``tracer.unmeasured``.
    """
    k = len(roots)
    wall = sum(r.duration for r in roots)
    spans = tracer.descendants(roots)
    own = self_time(spans)
    root_ids = {id(r) for r in roots}
    own_root = wall - sum(s.duration for s in spans if id(s.parent) in root_ids)
    by_name = outermost(spans)

    def outer(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in outer(name)) / k

    def calls(name):
        return len(outer(name)) / k

    def per(a, b):
        return a / b if b else 0.0

    ssc = outer("solvers.solve_ssc")
    iters = {id(s): 0 for s in ssc}
    for s in outer("solvers.cho_solve"):
        p = s.parent
        while p is not None and id(p) not in iters:
            p = p.parent
        if p is not None:
            iters[id(p)] += 1
    converged = sum(1 for s in ssc if s.note is not None and iters[id(s)] < s.note)
    ssc_iters = calls("solvers.cho_solve")
    outer_iters = sum(mera_iterations) / k
    assign_points = sum(s.note for s in outer("subspace.assign")) / k
    picks = outer("selection.select_subband")
    evaluations = sum(s.note[0] for s in picks)
    run_experiment_self = own.get("cli.run_experiment", 0.0)

    m = {
        "bundle.load.s": (total("bundle.load"), "s"),
        "datasets.split.s": (total("datasets.split"), "s"),
        "wavelet.node_matrix.calls": (calls("wavelet.node_matrix"), "count"),
        "wavelet.node_matrix.s": (total("wavelet.node_matrix"), "s"),
        "pipeline.five_views.s": (total("pipeline.five_views"), "s"),
        "solvers.solve.calls": (calls("solvers.solve"), "count"),
        "solvers.solve.s": (total("solvers.solve"), "s"),
        "solvers.ssc.iterations": (ssc_iters, "count"),
        "solvers.ssc.s_per_iter": (per(total("solvers.solve_ssc"), ssc_iters), "s"),
        "solvers.ssc.cho_solve.s": (total("solvers.cho_solve"), "s"),
        "solvers.ssc.converged_share": (per(converged, len(ssc)), "fraction"),
        "mera.outer_iterations": (outer_iters, "count"),
        "mera.s_per_outer_iter": (per(total("mera.mera_mvsc"), outer_iters), "s"),
        "mera.mera_fit.s": (total("mera.mera_fit"), "s"),
        "mera.mera_contract.calls": (calls("mera.mera_contract"), "count"),
        "mera.mera_contract.s": (total("mera.mera_contract"), "s"),
        "mera.cho_solve.s": (total("mera.cho_solve"), "s"),
        "mera.mera_mvsc.self_s": (own.get("mera.mera_mvsc", 0.0) / k, "s"),
        "graph.spectral_clustering.calls": (calls("graph.spectral_clustering"), "count"),
        "graph.eigh.s": (total("graph.eigh"), "s"),
        "graph.kmeans.s": (total("graph.kmeans"), "s"),
        "graph.affinity.s": (total("graph.affinity"), "s"),
        "subspace.estimate_bases.s": (total("subspace.estimate_bases"), "s"),
        "subspace.assign.s": (total("subspace.assign"), "s"),
        "subspace.assign.points": (assign_points, "count"),
        "subspace.assign.points_per_s": (per(assign_points, total("subspace.assign")), "1/s"),
        "subspace.average_affinity.s": (total("subspace.average_affinity"), "s"),
        "selection.evaluations": (evaluations / k, "count"),
        "selection.evaluations_share": (per(evaluations, sum(s.note[1] for s in picks)), "fraction"),
        "selection.grid_search.points": (sum(s.note for s in outer("selection.grid_search")) / k, "count"),
        "selection.self_s": (sum(v for n, v in own.items() if n.startswith("selection.")) / k, "s"),
        "metrics.evaluate.calls": (calls("metrics.evaluate"), "count"),
        "metrics.evaluate.s": (total("metrics.evaluate"), "s"),
        "cli.run_experiment.self_s": (run_experiment_self / k, "s"),
        "cli.emit_report.s": (total("cli.emit_report"), "s"),
        "cli.emit_report.bytes": (sum(s.note for s in outer("cli.emit_report")) / k, "bytes"),
        "trace.coverage": (per(wall - run_experiment_self - own_root, wall), "fraction"),
    }
    for layer in LAYERS:
        busy = sum(v for n, v in own.items() if n.startswith(layer + "."))
        m[f"{layer}.self_share"] = (per(busy, wall), "fraction")
    return m
