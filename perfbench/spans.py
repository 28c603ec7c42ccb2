"""Outside-in tracing of bubblelab's layers for the benchmark's traced run.

`install` replaces public functions of the package with timed wrappers,
at the name each caller looks up: module attributes that other modules
call through (``quad.integrate_halfline`` also covers quad's own calls,
because they resolve the name in the module at call time), and the
names ``cli`` imported by value (``cli.residual_model``,
``cli.bubble_energy_quadrature``).  ``corrector.spla.splu`` returns a
stand-in whose ``solve`` is timed as well.

Spans are kept in memory as ``[name, start, end, parent, run_id]`` rows,
``parent`` being the index of the enclosing span in the same list (-1 at
top level); counters sit beside them.  Nothing here runs unless a traced
child process calls `install`, so untraced runs execute the package
untouched.
"""
from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

# metric name -> (unit, workloads on which it must be non-zero).  The
# traced run refuses to report when a metric reads 0 on its workload, so
# a renamed or bypassed layer breaks the benchmark instead of reporting
# silent zeros.
LAYER_METRICS = {
    "quad.integrate_halfline.calls": ("count", ("verify",)),
    "quad.integrate_halfline.evals": ("count", ("verify",)),
    "quad.integrate_halfline.self_s": ("s", ("verify",)),
    "quad.brute_halfspace.calls": ("count", ("verify",)),
    "quad.brute_halfspace.s": ("s", ("verify",)),
    "quad.moment.calls": ("count", ("verify",)),
    "quad.moment.misses": ("count", ("verify",)),
    "quad.moment.hit_ratio": ("ratio", ("verify",)),
    "geom.paired_halfspace.calls": ("count", ("verify",)),
    "geom.paired_halfspace.s": ("s", ("verify",)),
    "geom.cancellation_suite.s": ("s", ("verify",)),
    "bubble.residual.calls": ("count", ("verify",)),
    "bubble.residual.s": ("s", ("verify",)),
    "bubble.energy_quadrature.s": ("s", ("verify",)),
    "corrector.decompose_forcing.s": ("s", ("frame",)),
    "geom.forcing_Ep.calls": ("count", ("frame",)),
    "corrector.solve_mode.calls": ("count", ("frame", "degree0")),
    "corrector.solve_mode.s": ("s", ("frame", "degree0")),
    "corrector.solve_mode.self_s": ("s", ("frame", "degree0")),
    "corrector.splu.calls": ("count", ("degree0", "frame")),
    "corrector.splu.s": ("s", ("degree0", "frame")),
    "corrector.lu_fill": ("count", ("degree0", "frame")),
    "corrector.system_n": ("count", ("degree0", "frame")),
    "corrector.factorizations_per_solve": ("ratio", ("degree0", "frame")),
    "corrector.lu_solve.calls": ("count", ("degree0",)),
    "corrector.lu_solve.s": ("s", ("degree0",)),
    "corrector.corrector_diagnostics.s": ("s", ("frame",)),
    "reduced.optimize.s": ("s", ("frame",)),
    "report.write.s": ("s", ("frame",)),
    "report.bytes": ("count", ("frame",)),
}

# counters merged across child processes by maximum instead of by sum
_MAX_COUNTERS = ("corrector.system_n",)

_MOMENT_METHODS = ("I", "phi_power", "phi", "phi_hat", "phi_tilde",
                   "halfspace_moment", "boundary_moment")


class Tracer:
    """In-memory spans and counters of one child process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self._open = []

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        spans, stack, run_id = self.spans, self._open, self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def count(self, name, fn):
        """``fn`` with its calls counted under ``name``, without spans."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


class _TimedLU:
    """SuperLU stand-in whose ``solve`` is traced; the rest passes through."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


def install(tracer):
    """Wrap the layers of an imported bubblelab for this process."""
    from bubblelab import cli, corrector, geom, quad, reduced

    counts = tracer.counts
    wrap = tracer.wrap

    integrate = quad.integrate_halfline

    def integrate_halfline(f, *args, **kwargs):
        def counted(x):
            counts["quad.integrate_halfline.evals"] += 1
            return f(x)

        return integrate(counted, *args, **kwargs)

    quad.integrate_halfline = wrap("quad.integrate_halfline",
                                   integrate_halfline)
    quad.brute_halfspace = wrap("quad.brute_halfspace", quad.brute_halfspace)

    # MomentTable methods call each other (phi -> phi_power,
    # halfspace_moment -> I); only the outermost call is a lookup
    depth = [0]

    def moment(fn):
        @functools.wraps(fn)
        def lookup(table, *args, **kwargs):
            if depth[0]:
                return fn(table, *args, **kwargs)
            depth[0] = 1
            before = len(table.cache)
            try:
                return fn(table, *args, **kwargs)
            finally:
                depth[0] = 0
                counts["quad.moment.calls"] += 1
                if len(table.cache) > before:
                    counts["quad.moment.misses"] += 1

        return lookup

    for meth in _MOMENT_METHODS:
        setattr(quad.MomentTable, meth,
                moment(getattr(quad.MomentTable, meth)))

    geom.paired_halfspace = wrap("geom.paired_halfspace",
                                 geom.paired_halfspace)
    geom.cancellation_suite = wrap("geom.cancellation_suite",
                                   geom.cancellation_suite)
    geom.forcing_Ep = tracer.count("geom.forcing_Ep.calls", geom.forcing_Ep)
    cli.residual_model = wrap("bubble.residual", cli.residual_model)
    cli.residual_linearized = wrap("bubble.residual", cli.residual_linearized)
    cli.bubble_energy_quadrature = wrap("bubble.energy_quadrature",
                                        cli.bubble_energy_quadrature)

    corrector.decompose_forcing = wrap("corrector.decompose_forcing",
                                       corrector.decompose_forcing)
    corrector.solve_mode = wrap("corrector.solve_mode", corrector.solve_mode)
    corrector.corrector_diagnostics = wrap("corrector.corrector_diagnostics",
                                           corrector.corrector_diagnostics)
    factor = wrap("corrector.splu", corrector.spla.splu)

    # extracting L and U copies the factors; its own span keeps that
    # cost out of the enclosing solve_mode's self time
    def fill(lu):
        counts["corrector.lu_fill"] += lu.L.nnz + lu.U.nnz
        counts["corrector.system_n"] = max(counts["corrector.system_n"],
                                           lu.shape[0])

    fill = wrap("trace.lu_fill", fill)

    def splu(*args, **kwargs):
        lu = factor(*args, **kwargs)
        fill(lu)
        return _TimedLU(lu, wrap("corrector.lu_solve", lu.solve))

    corrector.spla.splu = splu

    reduced.optimize_constants = wrap("reduced.optimize",
                                      reduced.optimize_constants)
    reduced.optimize_nonconstant = wrap("reduced.optimize",
                                        reduced.optimize_nonconstant)
    cli._write_report = wrap("report.write", cli._write_report)
    corrector.CorrectorSolution.save = wrap("report.write",
                                            corrector.CorrectorSolution.save)
    reduced.BlowupReport.save = wrap("report.write", reduced.BlowupReport.save)


def merge(parts):
    """One (spans, counts) pair from per-process (spans, counts) pairs.

    Parent indices are rebased onto the merged list.
    """
    spans = []
    counts = Counter()
    for part_spans, part_counts in parts:
        base = len(spans)
        spans.extend([name, start, end, parent + base if parent >= 0 else -1,
                      run_id]
                     for name, start, end, parent, run_id in part_spans)
        for key, value in part_counts.items():
            if key in _MAX_COUNTERS:
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
    return spans, counts


def layer_metrics(spans, counts):
    """Every metric of LAYER_METRICS from merged spans and counters.

    ``<layer>.calls`` counts spans, ``<layer>.s`` sums the spans that no
    span of the same name encloses (inclusive time, nested calls counted
    once), ``<layer>.self_s`` sums each span minus its direct children.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += end - start - child_time[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            st["s"] += end - start

    def span_stat(metric):
        layer, _, stat = metric.rpartition(".")
        return stats.get(layer, {}).get(stat, 0)

    out = {}
    for metric in LAYER_METRICS:
        if metric in counts:
            out[metric] = counts[metric]
        else:
            out[metric] = span_stat(metric)
    calls = counts.get("quad.moment.calls", 0)
    out["quad.moment.hit_ratio"] = \
        (calls - counts.get("quad.moment.misses", 0)) / calls if calls else 0.0
    solves = span_stat("corrector.solve_mode.calls")
    out["corrector.factorizations_per_solve"] = \
        span_stat("corrector.splu.calls") / solves if solves else 0.0
    return out
