"""Spans around the calls into each slenderfall layer, for the traced run.

Wrappers are installed on public functions in the namespace where the
caller looks each one up, so nothing under ``src/`` changes. A function a
later version renames or removes is reported as absent, not as a crash.
Only the traced run imports this module.

A span is (name, start, end, parent); self time is its duration minus
the time its direct children cover. Counters are computed after a span
closes, so they cost wall time (reported as overhead) but no span time.
"""

import functools
import statistics
import time
import tracemalloc

import numpy as np

# (module, attribute, span name); cli.run and cli.parse_config are timed
# where the benchmark itself calls them
WRAPPED = (
    ("cli", "discretize", "geometry.discretize"),
    ("cli", "mass_properties", "geometry.mass_properties"),
    ("cli", "validate_geometry", "geometry.validate_geometry"),
    ("cli", "resistance_set", "mobility.resistance_set"),
    ("cli", "steady_states", "freefall.steady_states"),
    ("cli", "integrate", "dynamics.integrate"),
    ("cli", "fourier_oracle", "kernel.fourier_oracle"),
    ("cli", "kernel_scalars", "kernel.kernel_scalars"),
    ("mobility", "assemble_system", "mobility.assemble_system"),
    ("mobility", "kernel_scalars", "kernel.kernel_scalars"),
    ("dynamics", "rhs", "dynamics.rhs"),
)

# spans whose peak traced allocation (tracemalloc) is recorded
MEMORY_SPANS = frozenset({"mobility.assemble_system", "mobility.resistance_set"})


def _kernel_counts(args, kwargs, result):
    r = np.asarray(args[0])
    params = args[1]
    return {"pairs": r.size,
            "near": int(np.count_nonzero(r <= params.switch_radius))}


def _node_count(args, kwargs, result):
    return {"n": args[0].n_nodes}


def _states_found(args, kwargs, result):
    return {"states": len(result)}


COUNTERS = {
    "kernel.kernel_scalars": _kernel_counts,
    "mobility.assemble_system": _node_count,
    "mobility.resistance_set": _node_count,
    "freefall.steady_states": _states_found,
}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names = []          # span name per span
        self.start = []
        self.end = []
        self.parent = []
        self.extra = {}          # span index -> counters / peak_mb
        self.absent = set()       # wrapped functions the program no longer has
        self._stack = []
        self._mem = []           # [base_bytes, child_peak_bytes] per open memory span
        self._installed = []

    # ------------------------------------------------------------ spans
    def open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        if name in MEMORY_SPANS:
            self._mem_enter()
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()
        if self.names[i] in MEMORY_SPANS:
            self.extra.setdefault(i, {})["peak_mb"] = self._mem_exit() / 1e6

    def _mem_enter(self):
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, 0])

    def _mem_exit(self):
        base, child_peak = self._mem.pop()
        peak = max(tracemalloc.get_traced_memory()[1], child_peak)
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        else:
            tracemalloc.stop()
        return peak - base

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span of the given name."""
        i = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(i)

    # ---------------------------------------------------------- wrappers
    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if counter is not None:
                try:
                    self.extra.setdefault(i, {}).update(counter(args, kwargs, result))
                except (AttributeError, IndexError, TypeError, ValueError):
                    pass        # signature changed: the counter reads as 0
            return result

        return wrapper

    def install(self, modules):
        """Wrap every function in WRAPPED; ``modules`` maps short names to
        imported modules."""
        for mod_name, attr, span in WRAPPED:
            mod = modules[mod_name]
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.add(f"{mod_name}.{attr}")
                continue
            self._installed.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(span, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    # ------------------------------------------------------- aggregation
    def item_stats(self, lo, hi):
        """Per-name totals over spans lo..hi-1 (one item): self seconds,
        duration seconds, calls, summed counters, per-call self times and
        the largest peak_mb."""
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        child = [0.0] * (hi - lo)
        for k, i in enumerate(range(lo, hi)):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += dur[k]
        stats = {}
        for k, i in enumerate(range(lo, hi)):
            s = stats.setdefault(self.names[i], {"self": 0.0, "dur": 0.0, "calls": 0,
                                                 "per_call": [], "peak_mb": 0.0})
            own = dur[k] - child[k]
            s["self"] += own
            s["dur"] += dur[k]
            s["calls"] += 1
            s["per_call"].append(own)
            for key, v in self.extra.get(i, {}).items():
                if key == "peak_mb":
                    s["peak_mb"] = max(s["peak_mb"], v)
                else:
                    s[key] = s.get(key, 0) + v
        return stats

    def dump(self):
        """Spans as [name, start, end, parent] rows, for the results file."""
        return [[self.names[i], self.start[i], self.end[i], self.parent[i]]
                for i in range(len(self.names))]


def _median(values):
    return statistics.median(values) if values else 0.0


def per_layer_metrics(items, untraced_walls, traced_walls):
    """Per-layer metrics from the per-item span statistics of the traced items.

    ``items`` is a list of item_stats() dicts; each metric is the median
    over items unless stated otherwise.
    """
    def per_item(name, key):
        return [it.get(name, {}).get(key, 0.0) for it in items]

    def total(name, key):
        return sum(per_item(name, key))

    def med(name, key="self"):
        return _median(per_item(name, key))

    kernel_self = total("kernel.kernel_scalars", "self")
    pairs = total("kernel.kernel_scalars", "pairs")
    lu_flops = sum((2.0 / 3.0) * (3 * n) ** 3 for n in per_item("mobility.resistance_set", "n"))
    rs_self = total("mobility.resistance_set", "self")
    asm_n = per_item("mobility.assemble_system", "n")
    rhs_calls = total("dynamics.rhs", "calls")
    steps = rhs_calls / 4.0         # classical RK4: four rhs calls per step
    oracle_points = [t for it in items
                     for t in it.get("kernel.fourier_oracle", {}).get("per_call", [])]
    coverage = (sum(s["self"] for it in items for s in it.values()) / sum(traced_walls)
                if traced_walls else 0.0)
    overhead = (sum(traced_walls) / sum(untraced_walls) - 1.0
                if untraced_walls and traced_walls else 0.0)
    return {
        "kernel.kernel_scalars.self_s": med("kernel.kernel_scalars"),
        "kernel.pairs": med("kernel.kernel_scalars", "pairs"),
        "kernel.ns_per_pair": kernel_self / pairs * 1e9 if pairs else 0.0,
        "kernel.near_field_fraction": (total("kernel.kernel_scalars", "near") / pairs
                                       if pairs else 0.0),
        "kernel.fourier_oracle.self_s": _median(oracle_points),
        "kernel.fourier_oracle.calls": med("kernel.fourier_oracle", "calls"),
        "mobility.assemble_system.self_s": med("mobility.assemble_system"),
        "mobility.assemble_system.peak_mb": med("mobility.assemble_system", "peak_mb"),
        "mobility.matrix_mb": _median([(3 * n) ** 2 * 8 / 1e6 for n in asm_n]),
        "mobility.resistance_set.self_s": med("mobility.resistance_set"),
        "mobility.resistance_set.peak_mb": med("mobility.resistance_set", "peak_mb"),
        "mobility.lu_gflops_computed": lu_flops / rs_self / 1e9 if rs_self else 0.0,
        "geometry.discretize.self_s": med("geometry.discretize"),
        "geometry.discretize.calls": med("geometry.discretize", "calls"),
        "geometry.validate_geometry.self_s": med("geometry.validate_geometry"),
        "geometry.mass_properties.self_s": med("geometry.mass_properties"),
        "freefall.steady_states.self_s": med("freefall.steady_states"),
        "freefall.states_found": med("freefall.steady_states", "states"),
        "dynamics.rhs.self_s": med("dynamics.rhs"),
        "dynamics.rhs.calls": med("dynamics.rhs", "calls"),
        "dynamics.rhs.us_per_call": (total("dynamics.rhs", "self") / rhs_calls * 1e6
                                     if rhs_calls else 0.0),
        "dynamics.integrate.self_s": med("dynamics.integrate"),
        "dynamics.step_us": (total("dynamics.integrate", "dur") / steps * 1e6
                             if steps else 0.0),
        "cli.parse_config.self_s": med("cli.parse_config"),
        "cli.run.self_s": med("cli.run"),
        "trace.coverage": coverage,
        "trace.overhead": overhead,
    }


def size_sweep_metrics(n, items):
    """One ROADMAP baseline-table row (N nodes) from traced helix items."""
    def med(name, key):
        return _median([it.get(name, {}).get(key, 0.0) for it in items])
    return {f"sweep.n{n}.assemble_s": med("mobility.assemble_system", "dur"),
            f"sweep.n{n}.kernel_s": med("kernel.kernel_scalars", "dur"),
            f"sweep.n{n}.resistance_self_s": med("mobility.resistance_set", "self"),
            f"sweep.n{n}.resistance_set_s": med("mobility.resistance_set", "dur")}
