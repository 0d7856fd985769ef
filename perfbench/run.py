"""Benchmark of the slenderfall command-line pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload helix-large --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20     # every workload in turn

Each workload runs in its own process: one caller in a closed loop, each
item (one ``cli.parse_config`` + ``cli.run`` on a generated config) starting
when the previous one returns. The BLAS thread count is set to the number of
usable CPUs before numpy is imported; after the imports the calling thread
is held on one CPU (the BLAS worker threads are not). Every item's output
is checked.

``--trace 0`` reports the end-to-end metrics and never imports the tracing
wrappers. ``--trace 1`` alternates untraced and traced items and reports the
per-layer split (tracing.py); on helix-large it also runs the traced size
sweep (N = 192, 768, 1536) and one item in a process with one BLAS thread.
Per-layer metrics that a workload does not exercise read 0.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. A results file with
the environment record, the per-item records and the spans is written to
perfbench/results/.
"""

import argparse
import copy
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"

SETUP_PROBES = 3                     # fresh processes timed for the import part of set-up
SIZE_SWEEP = ((32, 5), (128, 3))     # (panels, repeats); order 6 gives N = 192, 768
CHILD_TIMEOUT_S = 120


def nproc():
    return len(os.sched_getaffinity(0))


def blas_vars(threads):
    return {var: str(threads)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def child_env(threads):
    return {**os.environ, **blas_vars(threads)}


def import_program():
    """Import the slenderfall modules from this checkout's src/."""
    if not (SRC / "slenderfall" / "__init__.py").is_file():
        raise ImportError(f"no slenderfall package under {SRC}")
    sys.path.insert(0, str(SRC))
    import slenderfall
    from slenderfall import cli, dynamics, mobility
    if Path(slenderfall.__file__).resolve().parent != (SRC / "slenderfall").resolve():
        raise ImportError(f"slenderfall imported from {slenderfall.__file__}, not {SRC}")
    return {"cli": cli, "dynamics": dynamics, "mobility": mobility}


# ------------------------------------------------------------ environment

def _git(*args):
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _blas_threads_reported():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import ctypes
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in Path(path).name.lower():
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def _blas_build(module):
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, AttributeError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def _proc_field(path, key):
    with open(path) as fh:
        for line in fh:
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
    return None


def environment(threads):
    import platform

    import mpmath
    import numpy
    import scipy
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": {"numpy": _blas_build(numpy), "scipy": _blas_build(scipy),
                 "threads_set": threads, "threads_reported": _blas_threads_reported()},
        "nproc": threads,
        "main_thread_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
    }


# ------------------------------------------------------------------ items

class Runner:
    """Runs and checks the items of one workload in this process."""

    def __init__(self, workload, configs, reference, modules, out_dir, tracer=None):
        import workloads
        self.check_item = workloads.check_item
        self.workload = workload
        self.mode = workloads.MODES[workload]
        self.configs = configs
        self.ref = reference
        self.modules = modules
        self.out_dir = out_dir
        self.tracer = tracer
        self.records = []
        self.check_s = 0.0

    def item(self, index, traced=False, raw=None):
        """Run one item and check its output; returns its record. A ``raw``
        config replaces the workload's own and is checked without reference."""
        ref = self.ref if raw is None else None
        if raw is None:
            raw = self.configs[index % len(self.configs)]
        cli, tr = self.modules["cli"], self.tracer if traced else None
        if tr:
            tr.install(self.modules)
        lo = len(tr.names) if tr else 0
        t0 = time.perf_counter()
        try:
            if tr:
                cfg = tr.call("cli.parse_config", cli.parse_config, raw)
                status = tr.call("cli.run", cli.run, cfg, self.mode, self.out_dir)
            else:
                cfg = cli.parse_config(raw)
                status = cli.run(cfg, self.mode, self.out_dir)
            error = None
        except Exception as exc:  # any raise is a failed item, never a crash
            status, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            wall = time.perf_counter() - t0
            if tr:
                tr.uninstall()
        rec = {"index": index, "traced": traced, "wall_s": wall, "status": status,
               "error": error, "steps": 0}
        if tr:
            rec["spans"] = (lo, len(tr.names))
            rec["bytes_written"] = sum(p.stat().st_size for p in self.out_dir.iterdir())
        if error is None:
            t1 = time.perf_counter()
            try:
                rec["steps"] = self.check_item(self.workload, raw, self.out_dir, status,
                                               ref, index % len(self.configs))
            except Exception as exc:  # a malformed output fails the check too
                rec["error"] = f"check: {type(exc).__name__}: {exc}"
            self.check_s += time.perf_counter() - t1
        self.records.append(rec)
        return rec


def measure(runner, seconds, traced):
    """Closed loop for about ``seconds``: untraced items, or (untraced,
    traced) pairs in alternating order. Another round starts while it is
    expected to end less than half a round past ``seconds``, so long items
    overshoot as often as they undershoot; at least one round runs. Returns
    the loop's wall time without the output checks."""
    check0 = runner.check_s
    t_begin = time.perf_counter()
    rounds = 0
    while True:
        if traced:
            for t in ((False, True) if rounds % 2 == 0 else (True, False)):
                runner.item(rounds, traced=t)
        else:
            runner.item(rounds)
        rounds += 1
        elapsed = time.perf_counter() - t_begin
        if elapsed * (rounds + 0.5) / rounds > seconds:
            return elapsed - (runner.check_s - check0)


def probe_setup(threads):
    """Seconds from spawning a fresh interpreter until slenderfall.cli is
    imported (numpy, scipy and the BLAS started), in SETUP_PROBES processes."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
            "import slenderfall.cli; print(time.perf_counter())")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], env=child_env(threads),
                             capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                             check=True)
        times.append(float(out.stdout.split()[-1]) - t0)
    return times


def one_thread_probe():
    """Child process entry: one traced helix-large item; prints the
    resistance_set self time as JSON."""
    import tracing
    import workloads
    modules = import_program()
    out = WORK / str(os.getpid())
    out.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner("helix-large", workloads.make_configs("helix-large", 0), None,
                        modules, out, tracing.Tracer())
        rec = runner.item(0, traced=True)
        stats = runner.tracer.item_stats(*rec["spans"])
        self_s = stats.get("mobility.resistance_set", {}).get("self", 0.0)
        print(json.dumps({"error": rec["error"], "self_s": self_s}))
    finally:
        shutil.rmtree(out, ignore_errors=True)


def run_one_thread_child():
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
            "import run; run.one_thread_probe()")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(1),
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                         check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    if result["error"]:
        raise RuntimeError(f"one-thread helix-large item failed: {result['error']}")
    return result["self_s"]


# ----------------------------------------------------------------- metrics

def end_to_end_metrics(runner, measured_s, setup_s):
    measured = runner.records[1:]                     # records[0] is the warm-up
    walls = [r["wall_s"] for r in measured if r["error"] is None] or \
        [r["wall_s"] for r in measured]
    p90 = (statistics.quantiles(walls, n=10, method="inclusive")[8]
           if len(walls) > 1 else walls[0])
    metrics = {
        "setup_s": setup_s,
        "item_p50_s": statistics.median(walls),
        "item_p90_s": p90,
        "items_per_s": len(measured) / measured_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": SETUP_PROBES, "item_p50_s": len(walls),
               "item_p90_s": len(walls), "items_per_s": len(measured), "peak_rss_mb": 1}
    return metrics, samples


def traced_metrics(runner, configs):
    """Per-layer metrics of a --trace 1 run (tracing.per_layer_metrics), plus
    the size sweep and the one-thread resistance time on helix-large."""
    import tracing
    tr = runner.tracer
    measured = runner.records[1:]
    traced = [r for r in measured if r["traced"]]
    items = [tr.item_stats(*r["spans"]) for r in traced]
    metrics = tracing.per_layer_metrics(
        items, [r["wall_s"] for r in measured if not r["traced"]],
        [r["wall_s"] for r in traced])
    metrics["cli.bytes_written"] = statistics.median(r["bytes_written"] for r in traced)
    samples = {name: len(items) for name in metrics}
    if runner.workload == "helix-large":
        disc = configs[0]["discretization"]
        rows = {disc["panels"] * disc["order"]: items}
        for panels, repeats in SIZE_SWEEP:
            raw = copy.deepcopy(configs[0])
            raw["discretization"]["panels"] = panels
            recs = [runner.item(0, traced=True, raw=raw) for _ in range(repeats)]
            rows[panels * disc["order"]] = [tr.item_stats(*r["spans"]) for r in recs]
        for n, row in rows.items():
            sweep = tracing.size_sweep_metrics(n, row)
            metrics.update(sweep)
            samples.update(dict.fromkeys(sweep, len(row)))
        metrics["mobility.resistance_set.self_s_1thread"] = run_one_thread_child()
        samples["mobility.resistance_set.self_s_1thread"] = 1
    return metrics, samples


# -------------------------------------------------------------------- main

def run_workload(args, modules, threads, declared):
    import workloads
    probes = probe_setup(threads)
    t_setup = time.perf_counter()
    reference = workloads.load_reference()
    configs = workloads.make_configs(args.workload, args.seed)
    sha = workloads.configs_sha256(configs)
    self_check = []
    if configs != workloads.make_configs(args.workload, args.seed):
        self_check.append("configs differ between two generations from one seed")
    default_seed = args.seed == reference["seed"]
    if default_seed and sha != reference["config_sha256"][args.workload]:
        self_check.append("configs of the default seed differ from the recorded ones")
    ref = (reference.get(args.workload)
           if default_seed or args.workload == "helix-large" else None)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    out_dir = WORK / str(os.getpid())
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, configs, ref, modules, out_dir, tracer)
        runner.item(0)                                    # untimed warm-up item
        setup_s = statistics.median(probes) + time.perf_counter() - t_setup
        measured_s = measure(runner, args.seconds, traced=bool(args.trace))
        if args.trace:
            computed, samples = traced_metrics(runner, configs)
        else:
            computed, samples = end_to_end_metrics(runner, measured_s, setup_s)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    extra = sorted(set(computed) - set(declared))
    if extra:
        print(f"perfbench: metrics missing from BENCHMARK.json: {extra}", file=sys.stderr)
        return 3
    metrics = {name: {"value": float(computed.get(name, 0.0)), "unit": unit}
               for name, unit in declared.items()}
    not_exercised = [name for name, m in metrics.items() if m["value"] == 0.0]

    records = runner.records
    failed = sum(r["error"] is not None for r in records)
    correct = failed == 0 and not self_check
    result = {"correct": correct, "attempted": len(records), "failed": failed,
              "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(threads),
              "config_sha256": sha, "self_check_errors": self_check,
              "setup_probe_s": probes, "not_exercised": not_exercised,
              "absent_spans": sorted(tracer.absent) if tracer else [],
              "items": [{k: v for k, v in r.items() if k != "spans"} for r in records],
              "result": result}
    if tracer:
        report["spans"] = tracer.dump()
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(report, fh)

    for msg in self_check:
        print(f"self-check failed: {msg}")
    for r in records:
        if r["error"] is not None:
            print(f"item {r['index']} failed: {r['error']}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} items attempted, {failed} failed, "
          f"failed_fraction {failed / len(records):.4g}")
    if not args.trace and args.workload == "fall-long":
        steps = statistics.median(r["steps"] for r in records[1:])
        print(f"  steps_per_s = {steps / computed['item_p50_s']:.6g} 1/s "
              f"({steps} steps per item)")
    for name, m in metrics.items():
        note = "  (not exercised)" if name in not_exercised else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']} (n={samples.get(name, 0)}){note}")
    if tracer and tracer.absent:
        print(f"  absent spans: {', '.join(sorted(tracer.absent))}")
    print(f"  results file: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args):
    """Every workload in turn, each in its own process."""
    import workloads
    worst = 0
    for w in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, timeout=900).returncode)
    return worst


def main(argv=None):
    threads = nproc()
    os.environ.update(blas_vars(threads))        # before numpy is imported
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        modules = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    # The BLAS worker threads exist now and keep every CPU. The calling
    # thread is held on one CPU so that each run measures the same one:
    # on a shared host the CPUs can differ in speed for minutes at a time.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if args.trace else "end_to_end"]}
    return run_workload(args, modules, threads, declared)


if __name__ == "__main__":
    sys.exit(main())
