"""Configuration, nondimensionalization and the command-line pipeline.

Modes: ``mobility`` (resistance matrices), ``steady`` (free-fall states),
``fall`` (quasi-steady trajectory), ``kernel-check`` (closed form vs Fourier
oracle) and ``convergence`` (panel-refinement study). Configuration is JSON;
reports are JSON, time series and tables are CSV.

Exit codes: 0 success, 2 config error, 3 solver error, 4 convergence-gate
failure.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .dynamics import COLUMNS, DynamicsParams, FallState, integrate, max_stable_dt
from .errors import (ConfigError, ConvergenceError, GeometryError, SlenderFallError,
                     SolverError)
from .freefall import residual, steady_states
from .geometry import (CurveSpec, discretize, load_polyline_csv, mass_properties,
                       panel_counts, validate_geometry)
from .kernel import KernelParams, fourier_oracle, kernel_scalars, scale_is_finite
from .mobility import require_memory, require_solvable, resistance_set

MODES = ("mobility", "steady", "fall", "kernel-check", "convergence")

# r/ell abscissas probed by the kernel-check mode
KERNEL_CHECK_POINTS = (0.0, 1e-2, 1e-1, 1.0, 10.0, 100.0)
KERNEL_CHECK_RTOL = 1e-8


@dataclass
class RunConfig:
    """Parsed and validated run configuration."""

    spec: CurveSpec
    ell: float
    re: float
    mu: float
    m: float
    m_c: float
    panels: int
    order: int
    dynamics: Optional[DynamicsParams]
    g_direction: np.ndarray
    dimensional: Optional[dict]        # scales when dimensional input was given
    raw: dict = field(repr=False, default_factory=dict)


def nondimensionalize(rho, mu, L, d, gravity):
    """Scales of the nondimensional system from dimensional fluid data.

    Reference length d, speed W = rho g d^2 / mu, time rho d^2 / mu,
    Reynolds number Re = rho W d / mu = rho^2 g d^3 / mu^2, thickness
    ell = L / d; masses scale with rho d^3.
    """
    for name, v in (("rho", rho), ("mu", mu), ("L", L), ("d", d),
                    ("gravity", gravity)):
        if v <= 0:
            raise ConfigError(f"cli.nondimensionalize: {name} must be positive")
    W = rho * gravity * d ** 2 / mu
    return {
        "ell": L / d,
        "re": rho ** 2 * gravity * d ** 3 / mu ** 2,
        "speed_scale": W,
        "time_scale": rho * d ** 2 / mu,
        "length_scale": d,
        "mass_scale": rho * d ** 3,
    }


def _density_from_config(block):
    kind = block.get("type")
    try:
        if kind == "uniform":
            v = float(block["value"])
            _require_finite(value=v)
            if v <= 0:
                raise ConfigError("cli: uniform density must be positive")
            return lambda s: np.full_like(np.asarray(s, float), v)
        if kind == "linear":
            a, b = float(block["a"]), float(block.get("b", 0.0))
            _require_finite(a=a, b=b)
            return lambda s: a + b * np.asarray(s, float)
    except KeyError as exc:
        raise ConfigError(f"cli.parse_config: rho_line of type {kind!r} needs {exc}")
    raise ConfigError(f"cli: unknown density profile type {kind!r}")


def _build_spec(body, density):
    kind = body.get("kind")
    if kind == "rod":
        return CurveSpec(kind="rod", length=float(body["length"]), density=density)
    if kind == "ring":
        return CurveSpec(kind="ring", radius=float(body["radius"]), density=density)
    if kind == "helix":
        return CurveSpec(kind="helix", radius=float(body["radius"]),
                         pitch=float(body["pitch"]), turns=float(body["turns"]),
                         density=density)
    if kind == "polyline":
        closed = bool(body.get("closed", False))
        if "csv" in body:
            return load_polyline_csv(body["csv"], closed=closed, density=density)
        return CurveSpec(kind="polyline",
                         vertices=np.asarray(body["vertices"], dtype=float),
                         closed=closed, density=density)
    raise ConfigError(f"cli: unknown or missing body kind {kind!r}")


def _block(parent, key, default=None):
    """The JSON object under `key` (`default` if absent); anything else is a
    config error."""
    value = parent.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"cli.parse_config: '{key}' must be a JSON object")
    return value


def _require_finite(**values):
    for name, v in values.items():
        if not np.isfinite(v):
            raise ConfigError(f"cli.parse_config: {name} must be finite, got {v}")


def parse_config(raw):
    """Validate a raw config dict into a RunConfig; raises ConfigError."""
    try:
        return _parse_config(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        # OverflowError: int() of an infinite count, or a dimensional scale
        # out of the float range
        raise ConfigError(f"cli.parse_config: bad value: {exc}")


def _parse_config(raw):
    if not isinstance(raw, dict):
        raise ConfigError("cli.parse_config: config must be a JSON object")
    if "body" not in raw:
        raise ConfigError("cli.parse_config: missing 'body' block")
    body = _block(raw, "body")

    fluid = _block(raw, "fluid", {})
    has_nd = "nondimensional" in fluid
    has_dim = "dimensional" in fluid
    if has_nd == has_dim:
        raise ConfigError("cli.parse_config: exactly one of fluid.nondimensional "
                          "and fluid.dimensional must be present")
    dimensional = None
    if has_nd:
        nd = _block(fluid, "nondimensional")
        try:
            ell = float(nd["ell"])
        except KeyError:
            raise ConfigError("cli.parse_config: fluid.nondimensional needs 'ell'")
        re = float(nd.get("re", 0.0))
        mu = float(nd.get("mu", 1.0))
    else:
        dim = _block(fluid, "dimensional")
        try:
            scales = nondimensionalize(float(dim["rho"]), float(dim["mu"]),
                                       float(dim["L"]), float(dim["d"]),
                                       float(dim["gravity"]))
        except KeyError as exc:
            raise ConfigError(f"cli.parse_config: fluid.dimensional missing {exc}")
        ell, re, mu = scales["ell"], scales["re"], 1.0
        dimensional = scales
    _require_finite(ell=ell, re=re, mu=mu)
    if ell <= 0:
        raise ConfigError("cli.parse_config: ell must be positive")
    if mu <= 0:
        raise ConfigError("cli.parse_config: mu must be positive")
    if not scale_is_finite(ell, mu):
        raise ConfigError(f"cli.parse_config: 8 pi mu ell at ell = {ell:.3e}, "
                          f"mu = {mu:.3e} underflows or overflows; it and its "
                          f"inverse must be finite")
    if re < 0:
        raise ConfigError("cli.parse_config: Re must be >= 0")

    masses = _block(raw, "masses", {})
    m_c = float(masses.get("m_c", 0.0))
    _require_finite(m_c=m_c)
    if m_c < 0:
        raise ConfigError("cli.parse_config: m_c must be >= 0")
    density = None
    m = None
    if "rho_line" in masses:
        density = _density_from_config(_block(masses, "rho_line"))
    elif "m" in masses:
        m = float(masses["m"])
        _require_finite(m=m)
        if m <= 0:
            raise ConfigError("cli.parse_config: m must be positive")
    else:
        m = 1.0
    if dimensional is not None:
        m_c = m_c / dimensional["mass_scale"]
        if m is not None:
            m = m / dimensional["mass_scale"]

    disc = _block(raw, "discretization", {})
    panels = int(disc.get("panels", 32))
    order = int(disc.get("order", 4))
    if panels < 1:
        raise ConfigError("cli.parse_config: panels must be >= 1")
    if not 2 <= order <= 16:
        raise ConfigError("cli.parse_config: order must be in 2..16")

    dyn = None
    g_dir = np.array([0.0, 0.0, 1.0])
    if "dynamics" in raw:
        db = _block(raw, "dynamics")
        g_dir = np.asarray(db.get("g_direction", [0.0, 0.0, 1.0]), dtype=float)
        if g_dir.shape != (3,) or not np.all(np.isfinite(g_dir)):
            raise ConfigError("cli.parse_config: g_direction must be 3 finite numbers")
        top = np.abs(g_dir).max()
        if top == 0:
            raise ConfigError("cli.parse_config: g_direction must be nonzero")
        g_dir = g_dir / top   # its norm may overflow
        try:
            dyn = DynamicsParams(re=re, dt=float(db["dt"]),
                                 t_end=float(db["t_end"]),
                                 steady_tol=float(db.get("steady_tol", 1e-6)),
                                 stride=int(db.get("stride", 1)))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"cli.parse_config: bad dynamics block: {exc}")

    try:
        spec = _build_spec(body, density)
        nodes = order * sum(panel_counts([L for _, L in spec.segments], panels))
    except SlenderFallError as exc:
        raise ConfigError(f"cli.parse_config: {exc}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cli.parse_config: bad body block: {exc}")
    except OSError as exc:
        raise ConfigError(f"cli.parse_config: cannot read the polyline CSV: {exc}")
    # a curve that records its symmetry (a rod, ring, helix or one-edge
    # polyline) makes a panel-periodic body; every other polyline, a closed
    # regular polygon included, is assembled in strips
    require_solvable(nodes, order, spec.symmetry is not None,
                     f"cli.parse_config: {nodes} nodes")

    return RunConfig(spec=spec, ell=ell, re=re, mu=mu, m=m, m_c=m_c,
                     panels=panels, order=order, dynamics=dyn,
                     g_direction=g_dir / np.linalg.norm(g_dir),
                     dimensional=dimensional, raw=raw)


def _prepare(cfg, panels=None):
    """Discretize, resolve the density scale, return body + masses + params.

    A total-mass config gets the uniform density m / length on the nodes of
    the one discretization; a uniform density does not move the center of
    mass, so the nodes stay centered.
    """
    try:
        body = discretize(cfg.spec, panels or cfg.panels, cfg.order)
    except GeometryError as exc:
        raise ConfigError(f"cli: {exc}")
    if cfg.spec.density is None and cfg.m is not None:
        density = cfg.m / body.length
        if not 0 < density < np.inf:
            raise ConfigError(f"cli: the density m / length = {density:.3e} "
                              f"must be finite and positive")
        body = replace(body, density=np.full_like(body.weights, density))
    mp = mass_properties(body, m_c=cfg.m_c)
    params = KernelParams(ell=cfg.ell, mu=cfg.mu)
    return body, mp, params


def _steady_state_dicts(states, cfg, R, weights):
    """State dicts, each with the size of its line force density phi:
    max_q |phi_q| and sqrt(sum_q w_q |phi_q|^2). A size that is not finite
    raises SolverError."""
    out = []
    for s in states:
        d = s.to_dict()
        with np.errstate(over="ignore", invalid="ignore"):   # refused below
            phi = R.densities @ np.r_[s.xi, s.omega]
            top = np.abs(phi).max() or 1.0   # scaled: |phi|^2 may overflow
            phi2 = ((phi / top) ** 2).sum(axis=1)
            size = {"max": float(top * np.sqrt(phi2.max())),
                    "l2": float(top * np.sqrt(weights @ phi2))}
        if not all(map(math.isfinite, size.values())):
            raise SolverError(f"cli: the force density of the steady state of "
                              f"lambda = {s.lam:.3e} is not finite (max "
                              f"{size['max']:.3e}, l2 {size['l2']:.3e})")
        d["force_density"] = size
        if cfg.dimensional:
            W = cfg.dimensional["speed_scale"]
            dd = cfg.dimensional["length_scale"]
            d["dimensional"] = {
                "xi": (np.asarray(s.xi) * W).tolist(),
                "omega": (np.asarray(s.omega) * W / dd).tolist(),
            }
        out.append(d)
    return out


def kernel_check_rows(cfg):
    params = KernelParams(ell=cfg.ell, mu=cfg.mu)
    rows = []
    for s in KERNEL_CHECK_POINTS:
        r = s * cfg.ell
        closed = kernel_scalars(r, params)
        oracle = fourier_oracle(r, params)
        rel_a = abs(closed.A - oracle.A) / abs(oracle.A)
        # B vanishes at r = 0; compare absolutely against the A scale there
        rel_b = (abs(closed.B - oracle.B) / abs(oracle.B) if oracle.B != 0.0
                 else abs(closed.B - oracle.B) / abs(oracle.A))
        rows.append({"r_over_ell": s, "r": r,
                     "A_closed": closed.A, "A_oracle": oracle.A, "rel_err_A": rel_a,
                     "B_closed": closed.B, "B_oracle": oracle.B, "rel_err_B": rel_b})
    return rows


def convergence_study(cfg):
    """Resistance entries and fall eigenvalue under panel doubling.

    Runs panels in {N, 2N, 4N, 8N} and gates on the successive differences
    of the resistance blocks shrinking for the last pair.
    """
    if cfg.spec.kind not in ("rod", "ring", "helix"):
        raise ConfigError("cli.convergence_study: convergence mode needs a "
                          "built-in shape (rod, ring, helix)")
    rows = []
    prev = None
    diffs = []
    for mult in (1, 2, 4, 8):
        body, mp, params = _prepare(cfg, panels=cfg.panels * mult)
        R = resistance_set(body, params)
        states = steady_states(R, mp)
        lam = max((s.lam for s in states), key=abs)
        row = {
            "panels": body.panels, "nodes": body.n_nodes,
            "ktt_00": R.k_tt[0, 0], "ktt_11": R.k_tt[1, 1], "ktt_22": R.k_tt[2, 2],
            "ktr_norm": math.hypot(*R.k_tr.ravel()),   # hypot: no overflow
            "lambda": lam,
        }
        if prev is not None:
            # scaled by the largest entry: a sum of squares of the entries
            # may under- or overflow
            delta = R.grand - prev
            top = float(np.abs(delta).max())
            diffs.append(top * float(np.linalg.norm(delta / top)) if top else 0.0)
            row["grand_diff"] = diffs[-1]
            row["diff_ratio"] = (diffs[-1] / diffs[-2]) if len(diffs) > 1 and diffs[-2] else None
        prev = R.grand
        rows.append(row)
    if len(diffs) >= 2 and diffs[-1] >= diffs[-2]:
        raise ConvergenceError(
            f"cli.convergence_study: successive resistance differences not "
            f"decreasing ({diffs[-2]:.3e} -> {diffs[-1]:.3e})")
    return rows


def _write(path, write, *args):
    """write(path, *args); an OSError, such as path being a directory,
    becomes a ConfigError that names the file."""
    try:
        write(path, *args)
    except OSError as exc:
        raise ConfigError(f"cli.run: cannot write {path}: {exc}") from None


def _write_csv(path, rows, columns):
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            vals = [row.get(c) for c in columns]
            fh.write(",".join("" if v is None else f"{v:.17g}" for v in vals) + "\n")


def run(cfg, mode, out_dir="."):
    """Execute one pipeline mode; writes report.json plus mode CSVs.

    Returns the exit status (0 success, 4 when a gate fails); config errors
    and solver errors propagate as exceptions and are mapped by main().
    """
    if mode not in MODES:
        raise ConfigError(f"cli.run: unknown mode {mode!r}")
    if mode == "fall":
        if cfg.dynamics is None:
            raise ConfigError("cli.run: fall mode needs a 'dynamics' block")
        # integrate allocates a row for every sample: the initial state, one
        # every stride steps and the last step
        dyn = cfg.dynamics
        samples = math.ceil(dyn.t_end / dyn.dt) // dyn.stride + 2
        require_memory(0, "cli.run", len(COLUMNS) * samples,
                       what=f"a trajectory of {samples} samples")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cli.run: cannot use output directory {out_dir}: {exc}")
    report = {"version": __version__, "mode": mode, "config": cfg.raw}
    if cfg.dimensional:
        report["nondimensionalization"] = cfg.dimensional
    status = 0

    if mode == "kernel-check":
        rows = kernel_check_rows(cfg)
        report["kernel_check"] = rows
        _write(out / "kernel_check.csv", _write_csv, rows,
               ["r_over_ell", "r", "A_closed", "A_oracle", "rel_err_A",
                "B_closed", "B_oracle", "rel_err_B"])
        worst = max(max(r["rel_err_A"], r["rel_err_B"]) for r in rows)
        report["kernel_check_max_rel_err"] = worst
        if worst > KERNEL_CHECK_RTOL:
            status = 4
    elif mode == "convergence":
        rows = convergence_study(cfg)
        report["convergence"] = rows
        _write(out / "convergence.csv", _write_csv, rows,
               ["panels", "nodes", "ktt_00", "ktt_11", "ktt_22", "ktr_norm",
                "lambda", "grand_diff", "diff_ratio"])
    else:
        body, mp, params = _prepare(cfg)
        R = resistance_set(body, params)
        report["diagnostics"] = asdict(validate_geometry(body, cfg.ell, R.min_separation))
        report["resistance"] = R.to_dict()
        report["mass_properties"] = {
            "m": mp.m, "m_c": mp.m_c, "m_e": mp.m_e,
            "r": mp.r.tolist(), "inertia": mp.inertia.tolist(),
        }
        if mode in ("steady", "fall"):
            states = steady_states(R, mp)
            report["steady_states"] = _steady_state_dicts(states, cfg, R,
                                                          body.weights)
        if mode == "fall":
            dt, dt_max = cfg.dynamics.dt, max_stable_dt(R, mp)
            if dt > dt_max:
                raise ConfigError(
                    f"cli.run: dt = {dt:.6g} exceeds dt_max = {dt_max:.6g}, the "
                    f"largest step RK4 keeps stable under this body's drag "
                    f"(2.785 / its fastest decay rate)")
            s0 = FallState.from_rest(cfg.g_direction)
            traj = integrate(s0, R, mp, cfg.dynamics, steady_states=states)
            _write(out / "trajectory.csv", traj.to_csv)
            final = traj.final
            detection = {"converged": traj.halted_steady,
                         "state_index": traj.state_index if traj.halted_steady else None,
                         "mismatch": traj.mismatch, "t_final": final.t}
            if not traj.halted_steady:
                # non-convergence is a finding, not an error
                detection["final_balance_residual"] = residual(
                    final.xi, final.omega, final.G, R, mp)
            report["dynamics"] = {
                "trajectory_csv": "trajectory.csv",
                "n_samples": len(traj),
                "dt_max": dt_max,
                "steps": round(final.t / dt),   # from rest at t = 0
                "halt": "steady" if traj.halted_steady else "t_end",
                "halted_steady": traj.halted_steady,
                "frame_drift": traj.frame_drift,
                "steady_detection": detection,
            }

    report["timestamp"] = datetime.now(timezone.utc).isoformat()
    _write(out / "report.json", Path.write_text,
           json.dumps(report, indent=2, sort_keys=True) + "\n")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="slenderfall",
        description="Steady free fall and sedimentation of one-dimensional "
                    "rigid bodies in a hyperviscous fluid.")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(raw)
        return run(cfg, args.mode, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence gate failed: {exc}", file=sys.stderr)
        return 4
    except SlenderFallError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"solver error: out of memory: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
