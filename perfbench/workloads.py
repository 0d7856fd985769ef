"""Workload inputs and output checks for the slenderfall benchmark.

Each workload is a list of raw JSON configs made from the seed alone; one
item is one ``cli.parse_config`` + ``cli.run`` call on one config. The
checks read only what the run wrote to its output directory.

Workloads and why each was chosen:

- ``helix-large``: steady mode, README helix at N = 1536 (4608^2 matrix).
  Assembly and the dense LU are nearly all of the time.
- ``sweep-small``: steady mode on a seeded stream of small random bodies
  (polylines, helices, rings, rods; N about 100-400; ell in {0.03, 0.1,
  0.3}). Per-body fixed costs weigh much more here than on helix-large.
- ``fall-long``: fall mode, helix at N = 192, Re 0.05, 10^4 RK4 steps from
  rest with a seeded gravity direction. The dynamics layer dominates.
- ``kernel-check``: the six fixed r/ell points against the mpmath oracle.
  Runnable by hand but not listed in BENCHMARK.json: its 10-15 s items
  leave too few samples per run for a steady median within the time the
  whole benchmark may take.
"""

import csv
import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

MODES = {"helix-large": "steady", "sweep-small": "steady",
         "fall-long": "fall", "kernel-check": "kernel-check"}
WORKLOADS = tuple(MODES)
DEFAULT_SEED = 0
SWEEP_BODIES = 128

README_HELIX = {"kind": "helix", "radius": 1.0, "pitch": 1.0, "turns": 2.0}

# gates the program's own outputs must meet (values fixed here, not read
# from the program, so that loosening them in the program does not loosen
# the benchmark)
GRAND_RTOL = 1e-12          # ROADMAP aim 1: grand matrix vs reference
MOMENTUM_RTOL = 1e-8        # freefall.steady_states residual gate
KERNEL_CHECK_RTOL = 1e-8    # cli kernel-check gate
ORTHO_TOL = 1e-12           # |Q^T Q - I| after projection
GRAVITY_TOL = 1e-3          # |G - Q^T g0|, as in test_frame_invariants_many_steps
FALL_STEPS = 10_000

REFERENCE_PATH = Path(__file__).with_name("reference.json")


class CheckFailed(Exception):
    """An item's output failed its correctness check."""


def make_configs(workload, seed):
    """Raw configs of one workload; identical for identical seeds."""
    if workload == "helix-large":
        return [{"body": dict(README_HELIX),
                 "fluid": {"nondimensional": {"ell": 0.1}},
                 "masses": {"m": 1.0},
                 "discretization": {"panels": 256, "order": 6}}]
    if workload == "sweep-small":
        rng = random.Random(seed)
        return [body for _ in range(SWEEP_BODIES // len(_BLOCK_KINDS))
                for body in _small_body_block(rng)]
    if workload == "fall-long":
        return [{"body": dict(README_HELIX),
                 "fluid": {"nondimensional": {"ell": 0.1, "re": 0.05}},
                 "masses": {"m": 1.0},
                 "discretization": {"panels": 32, "order": 6},
                 "dynamics": {"dt": 0.005, "t_end": 50.0, "stride": 20,
                              "g_direction": _gravity_direction(random.Random(seed))}}]
    if workload == "kernel-check":
        return [{"body": dict(README_HELIX),
                 "fluid": {"nondimensional": {"ell": 0.1}}}]
    raise ValueError(f"unknown workload {workload!r}")


def configs_sha256(configs):
    return hashlib.sha256(json.dumps(configs, sort_keys=True).encode()).hexdigest()


def _gravity_direction(rng):
    # The helix's only steady orientation is g = +-x; keep the start at least
    # 30 degrees away from it so that steady detection never halts the run.
    polar = math.radians(rng.uniform(30.0, 90.0))
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    return [math.cos(polar), math.sin(polar) * math.cos(azimuth),
            math.sin(polar) * math.sin(azimuth)]


# One block of the sweep stream: fixed kind counts and node counts spread
# evenly over 100..400, so that every seed (and every whole number of
# blocks) has the same mix of costs; the seed picks shapes and pairings.
_BLOCK_KINDS = ("polyline",) * 8 + ("helix",) * 3 + ("ring",) * 3 + ("rod",) * 2
_BLOCK_NODES = tuple(100 + 20 * k for k in range(len(_BLOCK_KINDS)))


def _small_body_block(rng):
    nodes = list(_BLOCK_NODES)
    rng.shuffle(nodes)
    return [_small_body(rng, kind, n) for kind, n in zip(_BLOCK_KINDS, nodes)]


def _small_body(rng, kind, n_nodes):
    order = rng.choice((4, 6))
    if kind == "polyline":
        body, length = _random_polyline(rng)
    elif kind == "helix":
        body = {"kind": "helix", "radius": rng.uniform(0.3, 1.5),
                "pitch": rng.uniform(0.2, 2.0), "turns": rng.uniform(0.5, 3.0)}
        length = body["turns"] * math.hypot(2 * math.pi * body["radius"], body["pitch"])
    elif kind == "ring":
        body = {"kind": "ring", "radius": rng.uniform(0.3, 2.0)}
        length = 2 * math.pi * body["radius"]
    else:
        body = {"kind": "rod", "length": rng.uniform(1.0, 6.0)}
        length = body["length"]
    masses = {}
    if rng.random() < 0.2:
        # linear line density rho(s) = 1 + b s, positive on the whole curve
        masses["rho_line"] = {"type": "linear", "a": 1.0,
                              "b": rng.uniform(0.0, 1.0 / length)}
    else:
        masses["m"] = rng.uniform(0.5, 2.0)
    if rng.random() < 0.3:
        masses["m_c"] = rng.uniform(0.0, 0.4)
    return {"body": body,
            "fluid": {"nondimensional": {"ell": rng.choice((0.03, 0.1, 0.3))}},
            "masses": masses,
            "discretization": {"panels": max(1, round(n_nodes / order)),
                               "order": order}}


def _random_polyline(rng, min_gap=0.25, max_turn_deg=110.0):
    """Open or closed polyline of 5..8 vertices whose non-adjacent edges
    stay at least ``min_gap`` apart."""
    cos_max = math.cos(math.radians(max_turn_deg))
    while True:
        n = rng.randint(5, 8)
        closed = rng.random() < 0.25
        verts = [np.zeros(3)]
        prev = None
        while len(verts) < n:
            d = np.array([rng.gauss(0, 1) for _ in range(3)])
            d /= np.linalg.norm(d)
            if prev is not None and d @ prev < cos_max:
                continue
            verts.append(verts[-1] + rng.uniform(0.6, 1.4) * d)
            prev = d
        v = np.array(verts)
        if _well_separated(v, closed, min_gap):
            break
    length = float(np.linalg.norm(np.diff(np.vstack([v, v[:1]]) if closed else v,
                                          axis=0), axis=1).sum())
    return {"kind": "polyline", "vertices": v.round(12).tolist(),
            "closed": closed}, length


def _well_separated(v, closed, min_gap, samples=25):
    pts = np.vstack([v, v[:1]]) if closed else v
    m = len(pts) - 1
    if closed and np.linalg.norm(pts[-1] - pts[-2]) < min_gap:
        return False
    t = np.linspace(0.0, 1.0, samples)[:, None]
    seg = [pts[i] + t * (pts[i + 1] - pts[i]) for i in range(m)]
    for i in range(m):
        for j in range(i + 2, m):
            if closed and i == 0 and j == m - 1:
                continue            # edges sharing the closing vertex
            gap = np.linalg.norm(seg[i][:, None] - seg[j][None], axis=2).min()
            if gap < min_gap:
                return False
    return True


# ---------------------------------------------------------------- checks

def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def grand_matrix(report):
    r = report["resistance"]
    return np.block([[np.array(r["k_tt"]), np.array(r["k_tr"])],
                     [np.array(r["k_rt"]), np.array(r["k_rr"])]])


def lambdas(report):
    return [s["lambda"] for s in report["steady_states"]]


def steady_summary(report):
    """What the references record for one steady-mode item."""
    return {"grand": grand_matrix(report).tolist(), "lambdas": lambdas(report)}


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def check_steady(report, ref=None):
    """Grand matrix symmetric PSD, every state within the momentum gate and,
    when a reference is given, grand matrix and lambdas equal to it."""
    A = grand_matrix(report)
    scale = np.linalg.norm(A)
    _require(np.all(np.isfinite(A)) and scale > 0, "grand matrix not finite")
    _require(np.linalg.norm(A - A.T) <= GRAND_RTOL * scale, "grand matrix not symmetric")
    ev = np.linalg.eigvalsh(A)
    _require(ev.min() >= -GRAND_RTOL * ev.max(),
             f"grand matrix not positive semidefinite (min eigenvalue {ev.min():.3e})")
    states = report["steady_states"]
    _require(len(states) >= 1, "no steady state")
    m_e = report["mass_properties"]["m_e"]
    k_tt = np.linalg.norm(np.array(report["resistance"]["k_tt"]))
    for s in states:
        gate = MOMENTUM_RTOL * max(abs(m_e), k_tt * np.linalg.norm(s["xi"]))
        _require(s["momentum_residual"] <= gate,
                 f"momentum residual {s['momentum_residual']:.3e} above gate {gate:.3e}")
    if ref is None:
        return
    A_ref = np.array(ref["grand"])
    rel = np.linalg.norm(A - A_ref) / np.linalg.norm(A_ref)
    _require(rel <= GRAND_RTOL, f"grand matrix differs from reference by {rel:.3e}")
    lam, lam_ref = lambdas(report), ref["lambdas"]
    _require(len(lam) == len(lam_ref),
             f"{len(lam)} steady states, reference has {len(lam_ref)}")
    # lambda is 0 up to roundoff for symmetric bodies: relative to the largest
    lam_scale = max([1.0] + [abs(x) for x in lam_ref])
    for a, b in zip(sorted(lam), sorted(lam_ref)):
        _require(abs(a - b) <= GRAND_RTOL * lam_scale,
                 f"lambda {a!r} differs from reference {b!r}")


def read_trajectory(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return rows


def fall_final_state(rows):
    """Final sampled state (xi, omega, G, Q, c) flattened to 21 values."""
    last = rows[-1]
    keys = (["xi1", "xi2", "xi3", "omega1", "omega2", "omega3",
             "G1", "G2", "G3"]
            + [f"Q{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
            + ["c1", "c2", "c3"])
    return [float(last[k]) for k in keys]


def check_fall(report, rows, g_direction, ref=None):
    """Frame invariants at every sample, a run of full length and, when a
    reference is given, the final state within its RK4 error bound.

    Returns the number of RK4 steps taken.
    """
    dyn = report["dynamics"]
    _require(not dyn["halted_steady"], "run halted early at a steady state")
    g0 = np.asarray(g_direction, float)
    g0 /= np.linalg.norm(g0)
    for row in rows:
        Q = np.array([[float(row[f"Q{i}{j}"]) for j in (1, 2, 3)] for i in (1, 2, 3)])
        G = np.array([float(row[f"G{i}"]) for i in (1, 2, 3)])
        ortho = np.linalg.norm(Q.T @ Q - np.eye(3))
        _require(ortho <= ORTHO_TOL, f"|Q^T Q - I| = {ortho:.3e} at t = {row['t']}")
        drift = np.linalg.norm(G - Q.T @ g0)
        _require(drift <= GRAVITY_TOL, f"|G - Q^T g0| = {drift:.3e} at t = {row['t']}")
    steps = round(float(rows[-1]["t"]) / report["config"]["dynamics"]["dt"])
    _require(steps == FALL_STEPS, f"{steps} steps taken, expected {FALL_STEPS}")
    if ref is not None:
        diff = np.max(np.abs(np.subtract(fall_final_state(rows), ref["final"])))
        _require(diff <= ref["bound"],
                 f"final state differs from reference by {diff:.3e} > {ref['bound']:.3e}")
    return steps


def check_kernel(report):
    err = report["kernel_check_max_rel_err"]
    _require(err <= KERNEL_CHECK_RTOL, f"kernel-check max rel err {err:.3e}")


def check_item(workload, config, out_dir, status, ref, index):
    """Check one item's outputs; raises CheckFailed. ``ref`` is the
    workload's reference block, or None when the seed has none.

    Returns the RK4 steps taken (fall-long) or 0.
    """
    _require(status == 0, f"exit status {status}")
    out = Path(out_dir)
    with open(out / "report.json") as fh:
        report = json.load(fh)
    if workload == "kernel-check":
        check_kernel(report)
        return 0
    if workload == "fall-long":
        rows = read_trajectory(out / "trajectory.csv")
        return check_fall(report, rows, config["dynamics"]["g_direction"], ref)
    body_ref = None
    if ref is not None:
        body_ref = ref if workload == "helix-large" else ref["bodies"][index]
    check_steady(report, body_ref)
    return 0
