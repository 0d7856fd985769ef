"""CLI module: nondimensionalization, config parsing, pipeline modes."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from slenderfall import cli
from slenderfall.errors import ConfigError, SolverError


def base_config(**overrides):
    cfg = {
        "body": {"kind": "ring", "radius": 1.0},
        "fluid": {"nondimensional": {"ell": 0.1}},
        "masses": {"m": 1.0, "m_c": 0.0},
        "discretization": {"panels": 12, "order": 4},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def main_printing_warnings(argv):
    """cli.main with every warning printed to stderr, as a run from a shell
    prints it (pytest would otherwise record it away from stderr)."""
    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename,
                                                lineno, line))

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        return cli.main(argv)


def test_nondimensionalize_reference_case():
    nd = cli.nondimensionalize(rho=1.0, mu=1.0, L=0.1, d=1.0, gravity=1.0)
    assert nd["ell"] == pytest.approx(0.1)
    assert nd["re"] == pytest.approx(1.0)
    assert nd["speed_scale"] == pytest.approx(1.0)
    assert nd["time_scale"] == pytest.approx(1.0)


def test_nondimensionalize_unit_thickness():
    nd = cli.nondimensionalize(rho=2.0, mu=3.0, L=0.5, d=0.5, gravity=9.8)
    assert nd["ell"] == 1.0


def test_nondimensionalize_mu_scaling():
    a = cli.nondimensionalize(rho=1.0, mu=1.0, L=0.1, d=1.0, gravity=1.0)
    b = cli.nondimensionalize(rho=1.0, mu=2.0, L=0.1, d=1.0, gravity=1.0)
    assert b["re"] == pytest.approx(a["re"] / 4)
    assert b["speed_scale"] == pytest.approx(a["speed_scale"] / 2)


def test_nondimensionalize_rejects_nonpositive():
    with pytest.raises(ConfigError):
        cli.nondimensionalize(rho=-1.0, mu=1.0, L=0.1, d=1.0, gravity=1.0)


def test_parse_config_valid():
    cfg = cli.parse_config(base_config())
    assert cfg.ell == 0.1 and cfg.re == 0.0 and cfg.mu == 1.0
    assert cfg.m == 1.0 and cfg.panels == 12 and cfg.order == 4
    assert cfg.spec.kind == "ring"
    body, mp, _ = cli._prepare(cfg)
    assert np.all(body.density == cfg.m / body.length)
    assert abs(mp.m - cfg.m) <= 1e-14 * cfg.m


def test_parse_config_missing_body():
    with pytest.raises(ConfigError):
        cli.parse_config({"fluid": {"nondimensional": {"ell": 1.0}}})


def test_parse_config_fluid_exclusivity():
    cfg = base_config()
    cfg["fluid"] = {}
    with pytest.raises(ConfigError):
        cli.parse_config(cfg)
    cfg["fluid"] = {"nondimensional": {"ell": 1.0},
                    "dimensional": {"rho": 1, "mu": 1, "L": 1, "d": 1,
                                    "gravity": 1}}
    with pytest.raises(ConfigError):
        cli.parse_config(cfg)


def test_missing_config_exits_2(tmp_path, capsys):
    assert cli.main(["steady", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_config_exits_2_no_artifacts(tmp_path, capsys):
    path = write_config(tmp_path, {"fluid": {"nondimensional": {"ell": 1.0}}})
    out = tmp_path / "out"
    assert cli.main(["steady", "--config", str(path), "--out", str(out)]) == 2
    assert not (out / "report.json").exists()


def test_solver_error_exits_3(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise SolverError("mobility: factorization failed")

    monkeypatch.setattr(cli, "resistance_set", boom)
    path = write_config(tmp_path, base_config())
    assert cli.main(["steady", "--config", str(path), "--out", str(tmp_path)]) == 3
    assert "solver error" in capsys.readouterr().err


def test_steady_mode_ring(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert cli.main(["steady", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    states = report["steady_states"]
    assert len(states) == 1
    assert states[0]["lambda"] == pytest.approx(0.0, abs=1e-12)
    assert states[0]["multiplicity"] == 3
    assert report["resistance"]["n_nodes"] == 48
    assert report["resistance"]["blocks"] == []   # closed: block-Toeplitz PCG
    assert report["resistance"]["solver"]["path"] == "toeplitz-pcg"
    assert "diagnostics" in report and "version" in report
    density = states[0]["force_density"]
    assert 0 < density["l2"] < np.inf and 0 < density["max"] < np.inf


@pytest.mark.parametrize("body, periodic", [
    ({"kind": "helix", "radius": 1.0, "pitch": 1.0, "turns": 2.0}, True),
    ({"kind": "ring", "radius": 1.0}, True),
    ({"kind": "rod", "length": 2.0}, True),
    ({"kind": "polyline", "vertices": [[0.0, 0.0, 0.0], [0.9, 0.3, -0.2], [1.2, 1.1, 0.5],
                                       [0.4, 1.8, 1.1], [-0.3, 1.2, 1.7]]}, False),
    ({"kind": "polyline", "vertices": [[-1.0, 1.5, 0.0], [0.0, 0.0, 0.0], [1.0, 1.5, 0.0]]},
     False),
], ids=["README-helix", "ring", "rod", "random-polyline", "V"])
def test_report_says_whether_the_body_is_panel_periodic(tmp_path, body, periodic):
    # block-Toeplitz PCG and no dense block for a closed panel-periodic
    # body; two blocks, filled from the panel generators, for an open one
    # below N_x; one block, assembled in strips, for any other, the V
    # included
    cfg = base_config(body=body, discretization={"panels": 16, "order": 4})
    out = tmp_path / "out"
    assert cli.main(["mobility", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
    resistance = json.loads((out / "report.json").read_text())["resistance"]
    assert "panel_periodic" not in resistance
    pcg = body["kind"] == "ring"
    assert resistance["blocks"] == ([] if pcg else [96, 96] if periodic else [192])
    solver = resistance["solver"]
    assert solver["path"] == ("toeplitz-pcg" if pcg else "cholesky")
    assert solver["fallback"] is None
    if pcg:
        assert solver["iterations"] >= 1 and solver["residual"] <= 1e-14
        # the ranks of the ring's even and odd right-hand sides
        assert solver["widths"] == [3, 3]
    else:
        assert solver["iterations"] == 0 and solver["residual"] is None
        assert solver["widths"] is None


def test_momentum_gate_names_the_torque_residual(tmp_path, capsys):
    # the helix of radius 1e100 balances its forces, but the roundoff of its
    # torque terms, of order |K_rr| |omega|, exceeds the force-scaled gate
    cfg = base_config(body={"kind": "helix", "radius": 1e100, "pitch": 1.0, "turns": 2.0},
                      discretization={"panels": 4, "order": 4})
    path = write_config(tmp_path, cfg)
    assert cli.main(["steady", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "freefall.steady_states: torque residual exceeds 1.0e-08 * scale" in err


def test_config_roundtrip(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    cli.main(["mobility", "--config", str(path), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    cfg2 = cli.parse_config(report["config"])
    cfg1 = cli.parse_config(base_config())
    assert (cfg1.ell, cfg1.re, cfg1.m, cfg1.m_c, cfg1.panels, cfg1.order,
            cfg1.spec.kind) == (cfg2.ell, cfg2.re, cfg2.m, cfg2.m_c,
                                cfg2.panels, cfg2.order, cfg2.spec.kind)


def test_determinism_excluding_timestamp(tmp_path):
    path = write_config(tmp_path, base_config())
    reports = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["steady", "--config", str(path), "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        rep.pop("timestamp")
        reports.append(json.dumps(rep, sort_keys=True))
    assert reports[0] == reports[1]


def test_fall_mode_writes_trajectory(tmp_path):
    cfg = base_config()
    cfg["dynamics"] = {"dt": 0.01, "t_end": 0.2, "stride": 5,
                       "g_direction": [0, 0, 1]}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["fall", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["dynamics"]["trajectory_csv"] == "trajectory.csv"
    data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert data.shape[1] == 22
    assert report["dynamics"]["n_samples"] == data.shape[0]
    # released from rest: first row is all zeros except G3 = 1 and Q = I
    assert data[0, 0] == 0.0 and np.all(data[0, 1:7] == 0.0)


def test_fall_mode_requires_dynamics_block(tmp_path):
    path = write_config(tmp_path, base_config())
    assert cli.main(["fall", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_kernel_check_mode(tmp_path):
    cfg = base_config()
    cfg["fluid"] = {"nondimensional": {"ell": 1.0}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["kernel-check", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    rows = report["kernel_check"]
    assert [row["r_over_ell"] for row in rows] == [0.0, 1e-2, 1e-1, 1.0, 10.0, 100.0]
    assert report["kernel_check_max_rel_err"] <= 1e-8
    table = np.loadtxt(out / "kernel_check.csv", delimiter=",", skiprows=1)
    assert table.shape == (6, 8)


def test_convergence_mode_rod(tmp_path):
    cfg = base_config()
    cfg["body"] = {"kind": "rod", "length": 1.0}
    cfg["discretization"] = {"panels": 4, "order": 4}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["convergence", "--config", str(path), "--out", str(out)]) == 0
    rows = json.loads((out / "report.json").read_text())["convergence"]
    assert len(rows) == 4
    diffs = [r["grand_diff"] for r in rows if "grand_diff" in r]
    assert diffs[-1] == min(diffs)


def test_convergence_mode_ring_no_coupling(tmp_path):
    cfg = base_config()
    cfg["discretization"] = {"panels": 4, "order": 4}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["convergence", "--config", str(path), "--out", str(out)]) == 0
    rows = json.loads((out / "report.json").read_text())["convergence"]
    for r in rows:
        assert r["ktr_norm"] <= 1e-8 * max(abs(r["ktt_00"]), abs(r["ktt_22"]))


def test_convergence_mode_rejects_polyline(tmp_path):
    cfg = base_config()
    cfg["body"] = {"kind": "polyline",
                   "vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0]]}
    path = write_config(tmp_path, cfg)
    assert cli.main(["convergence", "--config", str(path),
                     "--out", str(tmp_path)]) == 2


def test_dimensional_mode_scales_outputs(tmp_path):
    nd_cfg = base_config()
    dim_cfg = base_config()
    dim_cfg["fluid"] = {"dimensional": {"rho": 1.0, "mu": 1.0, "L": 0.2,
                                        "d": 2.0, "gravity": 1.0}}
    # same nondimensional system: ell = 0.1; masses scale by rho d^3 = 8
    nd_cfg["masses"] = {"m": 1.0, "m_c": 0.0}
    dim_cfg["masses"] = {"m": 8.0, "m_c": 0.0}
    outs = {}
    for name, cfg in (("nd", nd_cfg), ("dim", dim_cfg)):
        path = write_config(tmp_path, cfg, name + ".json")
        out = tmp_path / name
        assert cli.main(["steady", "--config", str(path), "--out", str(out)]) == 0
        outs[name] = json.loads((out / "report.json").read_text())
    W = outs["dim"]["nondimensionalization"]["speed_scale"]
    assert W == pytest.approx(4.0)
    s_nd = outs["nd"]["steady_states"][0]
    s_dim = outs["dim"]["steady_states"][0]
    assert np.allclose(s_dim["xi"], s_nd["xi"])
    assert np.allclose(s_dim["dimensional"]["xi"], W * np.asarray(s_nd["xi"]))


def test_polyline_csv_body(tmp_path):
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0.0]])
    csv_path = tmp_path / "poly.csv"
    np.savetxt(csv_path, verts, delimiter=",")
    cfg = base_config()
    cfg["body"] = {"kind": "polyline", "csv": str(csv_path)}
    cfg["discretization"] = {"panels": 6, "order": 4}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["steady", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["steady_states"]) >= 1
    # the equal-legged L is its own mirror image, in reverse order, but not
    # panel-periodic: it takes one block
    assert report["resistance"]["blocks"] == [72]


def test_missing_polyline_csv_exits_2(tmp_path, capsys):
    cfg = base_config(body={"kind": "polyline", "csv": str(tmp_path / "no_such.csv")})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["steady", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not (out / "report.json").exists()


def test_nan_re_fall_run_exits_2(tmp_path, capsys):
    cfg = base_config()
    cfg["fluid"] = {"nondimensional": {"ell": 0.1, "re": float("nan")}}
    cfg["dynamics"] = {"dt": 0.01, "t_end": 0.2, "g_direction": [0, 0, 1]}
    path = write_config(tmp_path, cfg)   # json writes the literal NaN
    out = tmp_path / "out"
    assert cli.main(["fall", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("block, key, value", [
    ("fluid", "ell", float("inf")),
    ("fluid", "mu", float("nan")),
    ("masses", "m", float("inf")),
    ("masses", "m_c", float("nan")),
    ("dynamics", "dt", float("nan")),
    ("dynamics", "t_end", float("inf")),
    ("dynamics", "steady_tol", float("nan")),
    ("dynamics", "g_direction", [0.0, float("nan"), 1.0]),
])
def test_parse_config_rejects_non_finite(block, key, value):
    cfg = base_config()
    cfg["dynamics"] = {"dt": 0.01, "t_end": 0.2}
    target = cfg["fluid"]["nondimensional"] if block == "fluid" else cfg[block]
    target[key] = value
    with pytest.raises(ConfigError):
        cli.parse_config(cfg)


@pytest.mark.parametrize("block, key, value", [
    ("fluid", "ell", "abc"),
    ("discretization", "panels", "x"),
    # a JSON number such as 1e400 parses to inf, and int(inf) overflows
    ("discretization", "panels", float("inf")),
    ("discretization", "order", float("inf")),
    ("dynamics", "stride", float("inf")),
    # Re = rho^2 g d^3 / mu^2 overflows in nondimensionalize
    ("fluid", "dimensional", {"rho": 1e300, "mu": 1e-300, "L": 1e300, "d": 1e-300,
                              "gravity": 1e300}),
])
def test_non_numeric_config_value_exits_2(tmp_path, capsys, block, key, value):
    cfg = base_config(dynamics={"dt": 0.01, "t_end": 0.02})
    if key == "dimensional":
        cfg["fluid"] = {"dimensional": value}
    else:
        (cfg["fluid"]["nondimensional"] if block == "fluid" else cfg[block])[key] = value
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["steady", "--config", str(path), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("block, key, value", [
    ("fluid", "ell", 1e-300),
    ("masses", "m", 1e300),
])
def test_overflowing_fall_operator_exits_3(tmp_path, capsys, block, key, value):
    # both give the helix a finite F with entries of 1e282 and 1e297, whose
    # characteristic polynomial overflows
    cfg = base_config(body={"kind": "helix", "radius": 1.0, "pitch": 1.0, "turns": 2.0},
                      discretization={"panels": 4, "order": 3},
                      dynamics={"dt": 0.01, "t_end": 0.05})
    (cfg["fluid"]["nondimensional"] if block == "fluid" else cfg[block])[key] = value
    path = write_config(tmp_path, cfg)
    for mode in ("steady", "fall"):
        out = tmp_path / mode
        assert main_printing_warnings([mode, "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "solver error" in err and "Warning" not in err
        assert not (out / "report.json").exists()


@pytest.mark.parametrize("block, key, value", [
    ("fluid", "ell", 1e-300),
    ("masses", "m", 1e300),
])
def test_straight_rod_at_extreme_scales_runs_clean(tmp_path, capsys, block, key, value):
    # a straight rod has no translation-rotation coupling; solved on its two
    # reversal blocks that coupling is exactly zero, so F = 0 and the steady
    # speed (about 9e297 and 2.5e299) is finite: both modes succeed, with
    # finite force densities and no floating-point warnings
    cfg = base_config(body={"kind": "rod", "length": 2.0},
                      discretization={"panels": 4, "order": 3},
                      dynamics={"dt": 0.01, "t_end": 0.05})
    (cfg["fluid"]["nondimensional"] if block == "fluid" else cfg[block])[key] = value
    path = write_config(tmp_path, cfg)
    for mode in ("steady", "fall"):
        out = tmp_path / mode
        assert main_printing_warnings([mode, "--config", str(path), "--out", str(out)]) == 0
        assert "Warning" not in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["resistance"]["blocks"] == [18, 18]
        for state in report["steady_states"]:
            assert state["lambda"] == 0.0
            assert all(np.isfinite(state["xi"])) and np.abs(state["xi"]).max() > 1e297
            density = state["force_density"]
            assert 0 < density["l2"] < np.inf and 0 < density["max"] < np.inf


def test_tiny_mu_fall_run_exits_3(tmp_path, capsys):
    # mu = 1e-308 overflows the Green matrix; the ring is solved by
    # block-Toeplitz PCG, whose finiteness check of the symbols stops it
    cfg = base_config(dynamics={"dt": 0.01, "t_end": 0.05})
    cfg["fluid"]["nondimensional"]["mu"] = 1e-308
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main_printing_warnings(["fall", "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "block-Toeplitz symbols have non-finite entries" in err and "Warning" not in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("body", [
    {"kind": "helix", "radius": 1e300, "pitch": 1.0, "turns": 2.0},
    {"kind": "helix", "radius": 1.0, "pitch": 1e300, "turns": 2.0},
], ids=["radius", "pitch"])
def test_huge_helix_exits_2(tmp_path, capsys, body):
    # the length is finite; centering the nodes at the center of mass
    # overflows, and discretize refuses the non-finite nodes
    path = write_config(tmp_path, base_config(body=body))
    for mode in ("steady", "convergence"):
        out = tmp_path / mode
        assert main_printing_warnings([mode, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Warning" not in err
        assert not (out / "report.json").exists()


@pytest.mark.parametrize("block, key, value", [
    ("fluid", "mu", -1.0),
    ("fluid", "mu", 0.0),
    ("discretization", "panels", 0),
    ("discretization", "order", 1),
    ("discretization", "order", 17),
])
def test_out_of_domain_config_value_exits_2(tmp_path, capsys, block, key, value):
    cfg = base_config()
    (cfg["fluid"]["nondimensional"] if block == "fluid" else cfg[block])[key] = value
    with pytest.raises(ConfigError):
        cli.parse_config(cfg)
    path = write_config(tmp_path, cfg)
    assert cli.main(["steady", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_total_mass_steady_run_discretizes_once(tmp_path, monkeypatch):
    calls = []
    real_discretize = cli.discretize

    def counting(*args, **kwargs):
        calls.append(args)
        return real_discretize(*args, **kwargs)

    monkeypatch.setattr(cli, "discretize", counting)
    path = write_config(tmp_path, base_config())
    assert cli.main(["steady", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("body, masses", [
    ({"kind": "polyline", "vertices": [[0, 0, 0], [1, 0, 0], [1, float("nan"), 0]]},
     {"m": 1.0}),
    ({"kind": "rod", "length": float("inf")}, {"m": 1.0}),
    ({"kind": "ring", "radius": 1e308}, {"m": 1.0}),
    ({"kind": "rod", "length": 2.0},
     {"rho_line": {"type": "linear", "a": float("nan")}}),
    ({"kind": "rod", "length": 2.0},
     {"rho_line": {"type": "linear", "a": 1.0, "b": -1.0}}),
], ids=["nan-vertex", "infinite-length", "infinite-ring-length", "nan-density",
        "negative-density"])
def test_bad_body_or_density_exits_2(tmp_path, capsys, body, masses):
    path = write_config(tmp_path, base_config(body=body, masses=masses))
    out = tmp_path / "out"
    assert cli.main(["steady", "--config", str(path), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_memory_error_exits_3(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("cannot allocate the dense system")

    monkeypatch.setattr(cli, "resistance_set", exhausted)
    path = write_config(tmp_path, base_config())
    assert cli.main(["steady", "--config", str(path), "--out", str(tmp_path)]) == 3
    assert "out of memory" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["", "sub"])
def test_unusable_out_dir_exits_2(tmp_path, capsys, sub):
    # --out names an existing file, or a path below one
    path = write_config(tmp_path, base_config())
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    out = blocker / sub if sub else blocker
    assert cli.main(["steady", "--config", str(path), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert blocker.read_text() == "not a directory"


MALFORMED = {
    # (block, key or None for the whole block, value), exit code
    "body-list": (("body", None, []), 2),
    "masses-list": (("masses", None, []), 2),
    "dynamics-list": (("dynamics", None, []), 2),
    "discretization-list": (("discretization", None, []), 2),
    "rho_line-list": (("masses", "rho_line", []), 2),
    "rho_line-uniform-no-value": (("masses", "rho_line", {"type": "uniform"}), 2),
    "rho_line-linear-no-a": (("masses", "rho_line", {"type": "linear", "b": 0.1}), 2),
    "rho_line-value-1e400": (("masses", "rho_line", {"type": "uniform",
                                                     "value": float("1e400")}), 2),
    "rho_line-b-1e400": (("masses", "rho_line", {"type": "linear", "a": 1.0,
                                                 "b": float("1e400")}), 2),
    # t_end / dt overflows to an infinite step count
    "dt-1e-300": (("dynamics", None, {"dt": 1e-300, "t_end": 1e300}), 2),
    "ell-1e300": (("fluid", "ell", 1e300), 3),
    "mu-1e-308": (("fluid", "mu", 1e-308), 3),
    # the norms of its resistance blocks overflow as sums of squares
    "helix-radius-1e100": (("body", None, {"kind": "helix", "radius": 1e100,
                                            "pitch": 1.0, "turns": 2.0}), 3),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_config_exits_without_traceback(tmp_path, capsys, case):
    (block, key, value), code = MALFORMED[case]
    cfg = base_config(dynamics={"dt": 0.01, "t_end": 0.05})
    if block == "body":
        cfg["discretization"] = {"panels": 4, "order": 4}
    if key is None:
        cfg[block] = value
    else:
        (cfg["fluid"]["nondimensional"] if block == "fluid" else cfg[block])[key] = value
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main_printing_warnings(["fall", "--config", str(path),
                                   "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert ("config error" if code == 2 else "solver error") in err
    assert "Traceback" not in err and "Warning" not in err
    assert not (out / "report.json").exists()


def test_huge_gravity_direction_runs_as_its_unit_direction(tmp_path, capsys):
    # [1e308, 1e308, 0] has an overflowing norm; it is the direction [1, 1, 0]
    reports = []
    for g in ([1e308, 1e308, 0.0], [1.0, 1.0, 0.0]):
        cfg = base_config(dynamics={"dt": 0.01, "t_end": 0.05, "g_direction": g})
        out = tmp_path / str(len(reports))
        path = write_config(tmp_path, cfg)
        assert main_printing_warnings(["fall", "--config", str(path),
                                       "--out", str(out)]) == 0
        assert "Warning" not in capsys.readouterr().err
        reports.append(((out / "trajectory.csv").read_text(),
                        json.loads((out / "report.json").read_text())))
    (traj, big), (traj_unit, unit) = reports
    assert traj == traj_unit
    for report in (big, unit):
        del report["config"], report["timestamp"]
    assert big == unit


def test_unsolvable_discretization_refused_at_parse():
    # 4e9 nodes: refused before a node is made, in every mode
    cfg = base_config(discretization={"panels": 10 ** 9, "order": 4})
    with pytest.raises(ConfigError, match="physical memory"):
        cli.parse_config(cfg)


@pytest.mark.parametrize("body, panels", [
    ({"kind": "ring", "radius": 1.0}, 12),
    # three equal edges share 4 panels as 1 + 1 + 1
    ({"kind": "polyline", "vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]]}, 4),
], ids=["ring", "polyline"])
def test_parse_time_memory_guard_is_a_lower_bound(monkeypatch, body, panels):
    # the guard counts only the cheapest path for the N nodes discretize
    # will make: the block-Toeplitz arrays for a ring, the packed matrix of
    # order 3N/2 for a polyline. RAM for exactly that passes, one byte less
    # does not
    from slenderfall import geometry, mobility
    cfg = base_config(body=body, discretization={"panels": panels, "order": 4})
    n = geometry.discretize(cli.parse_config(cfg).spec, panels, 4).n_nodes
    m = 3 * n // 2
    if body["kind"] == "ring":
        assert n == 48
        need, match = 8 * mobility._toeplitz_doubles(n, 4), "block-Toeplitz solve needs"
    else:
        assert n == 12
        need, match = 4 * m * (m + 1), f"order {m} needs"
    ram = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need}
    monkeypatch.setattr(mobility.os, "sysconf", ram.__getitem__)
    cli.parse_config(cfg)
    ram["SC_PHYS_PAGES"] -= 1
    with pytest.raises(ConfigError, match=match):
        cli.parse_config(cfg)


def open_rod_above_n_x(ell=0.1):
    """A rod config of N >= N_x nodes, 1000 or more, order 4: an open body
    that block-Toeplitz PCG solves."""
    from slenderfall import mobility
    panels = max(250, -(-mobility._TOEPLITZ_MIN_NODES // 4))
    return base_config(body={"kind": "rod", "length": 4.0},
                       fluid={"nondimensional": {"ell": ell}},
                       discretization={"panels": panels, "order": 4}), 4 * panels


def test_rod_too_large_for_a_dense_block_solves(tmp_path, monkeypatch):
    # RAM between the block-Toeplitz need and one packed block of order
    # 3N/2: the parse-time guard used to refuse the rod (exit 2), which
    # PCG now solves
    from slenderfall import mobility
    cfg, n = open_rod_above_n_x()
    m = 3 * n // 2
    toeplitz, packed = 8 * mobility._toeplitz_doubles(n, 4), 4 * m * (m + 1)
    assert toeplitz < packed
    ram = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": (toeplitz + packed) // 2}
    monkeypatch.setattr(mobility.os, "sysconf", ram.__getitem__)
    out = tmp_path / "out"
    assert cli.main(["steady", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
    resistance = json.loads((out / "report.json").read_text())["resistance"]
    assert resistance["blocks"] == [] and resistance["solver"]["path"] == "toeplitz-pcg"


def test_huge_ell_rod_on_the_toeplitz_path_exits_3(tmp_path, capsys):
    # ell = 1e300 leaves the Green matrix at 1e-302 and below, subnormal:
    # the dense factor refused it below N_x, and the Cholesky factor of a
    # preconditioner symbol refuses it on the block-Toeplitz path
    cfg, _ = open_rod_above_n_x(ell=1e300)
    out = tmp_path / "out"
    assert main_printing_warnings(["steady", "--config", str(write_config(tmp_path, cfg)),
                                   "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "solver error" in err and "preconditioner" in err
    assert "Traceback" not in err and "Warning" not in err
    assert not (out / "report.json").exists()


def test_pcg_cap_falls_back_to_the_dense_blocks(tmp_path, monkeypatch):
    # with the cap at one iteration a helix above N_x (not solved in one)
    # falls back to its two dense blocks, which report.json names; the
    # answer is the block-Toeplitz one to roundoff
    from slenderfall import mobility
    panels = -(-mobility._TOEPLITZ_MIN_NODES // 6)
    cfg = base_config(body={"kind": "helix", "radius": 1.0, "pitch": 1.0, "turns": 2.0},
                      discretization={"panels": panels, "order": 6})
    path = write_config(tmp_path, cfg)
    reports = []
    for cap in (mobility._PCG_MAX_ITER, 1):
        monkeypatch.setattr(mobility, "_PCG_MAX_ITER", cap)
        out = tmp_path / str(cap)
        assert cli.main(["mobility", "--config", str(path), "--out", str(out)]) == 0
        reports.append(json.loads((out / "report.json").read_text())["resistance"])
    pcg, dense = reports
    n = 6 * panels
    assert pcg["blocks"] == [] and dense["blocks"] == [3 * n // 2] * 2
    assert dense["solver"]["path"] == "cholesky" and dense["solver"]["iterations"] == 1
    assert dense["solver"]["fallback"] == ("block-Toeplitz PCG stopped at its cap "
                                           "of 1 iterations")
    grand = [np.block([[np.array(r["k_tt"]), np.array(r["k_tr"])],
                       [np.array(r["k_rt"]), np.array(r["k_rr"])]]) for r in reports]
    assert np.linalg.norm(grand[0] - grand[1]) <= 1e-13 * np.linalg.norm(grand[1])


def test_pcg_cap_on_a_body_too_large_for_the_dense_blocks_exits_3(tmp_path, monkeypatch,
                                                                    capsys):
    # the rod fits the block-Toeplitz arrays but not one dense block of
    # order 3N/2: at the cap there is nothing to fall back to
    from slenderfall import mobility
    cfg, n = open_rod_above_n_x()
    m = 3 * n // 2
    toeplitz, packed = 8 * mobility._toeplitz_doubles(n, 4), 4 * m * (m + 1)
    ram = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": (toeplitz + packed) // 2}
    monkeypatch.setattr(mobility.os, "sysconf", ram.__getitem__)
    monkeypatch.setattr(mobility, "_PCG_MAX_ITER", 1)
    out = tmp_path / "out"
    assert cli.main(["steady", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "cap of 1 iterations, and the dense fallback does not fit" in err
    assert not (out / "report.json").exists()


def fall_long_helix(dt, t_end):
    """The benchmark's fall helix: N = 192, Re = 0.05, m = 1."""
    return base_config(body={"kind": "helix", "radius": 1.0, "pitch": 1.0, "turns": 2.0},
                       fluid={"nondimensional": {"ell": 0.1, "re": 0.05}},
                       discretization={"panels": 32, "order": 6},
                       dynamics={"dt": dt, "t_end": t_end, "g_direction": [0.5, 0.5, 0.7]})


@pytest.mark.parametrize("dt", [0.065, 0.1])
def test_fall_refuses_dt_above_stability_bound(tmp_path, capsys, dt):
    # the helix's fastest drag rate is 44.0, so RK4 needs dt <= 2.785 / 44.0:
    # dt = 0.065 ran with a growing mode and dt = 0.1 failed at step 8 in
    # the polar iteration
    path = write_config(tmp_path, fall_long_helix(dt, 1.0))
    out = tmp_path / "out"
    assert main_printing_warnings(["fall", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "dt_max = 0.06324" in err
    assert not (out / "report.json").exists()
    path = write_config(tmp_path, fall_long_helix(0.06, 0.3))
    assert cli.main(["fall", "--config", str(path), "--out", str(out)]) == 0
    dynamics = json.loads((out / "report.json").read_text())["dynamics"]
    assert dynamics["dt_max"] == pytest.approx(2.785 / 44.0, rel=1e-3)
    assert dynamics["steps"] == 5 and dynamics["halt"] == "t_end"


@pytest.mark.parametrize("body, dynamics, record", [
    # the ring reaches its steady fall at a sample, the helix runs to t_end
    ({"kind": "ring", "radius": 1.0},
     {"dt": 0.005, "t_end": 2.0, "stride": 10}, {"steps": 150, "halt": "steady"}),
    ({"kind": "helix", "radius": 1.0, "pitch": 1.0, "turns": 2.0},
     {"dt": 0.01, "t_end": 0.05}, {"steps": 5, "halt": "t_end"}),
], ids=["ring", "helix"])
def test_fall_run_record(tmp_path, body, dynamics, record):
    cfg = base_config(body=body, discretization={"panels": 8, "order": 4},
                      dynamics=dynamics)
    path = write_config(tmp_path, cfg)
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["fall", "--config", str(path), "--out", str(out)]) == 0
        runs.append(json.loads((out / "report.json").read_text())["dynamics"])
    assert runs[0] == runs[1]
    got = runs[0]
    assert {k: got[k] for k in record} == record
    assert got["halted_steady"] == (record["halt"] == "steady")
    stride = dynamics.get("stride", 1)
    assert got["n_samples"] == -(-record["steps"] // stride) + 1
    assert got["steady_detection"]["t_final"] == pytest.approx(record["steps"] * dynamics["dt"])


def far_ring(**overrides):
    """A ring of radius 1e150 on 12 nodes, with a dynamics block."""
    return base_config(body={"kind": "ring", "radius": 1e150},
                       discretization={"panels": 4, "order": 3},
                       dynamics={"dt": 0.01, "t_end": 0.1}, **overrides)


@pytest.mark.parametrize("mode", ["mobility", "steady", "fall"])
def test_non_finite_grand_matrix_exits_3(tmp_path, capsys, mode):
    # at mu = 1e300 the kernel between nodes 1e150 apart underflows to zero
    # and the rotational solves overflow: the grand matrix holds NaN
    cfg = far_ring(fluid={"nondimensional": {"ell": 0.1, "mu": 1e300}})
    out = tmp_path / "out"
    assert main_printing_warnings([mode, "--config", str(write_config(tmp_path, cfg)),
                                   "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "solver error" in err and "not finite" in err
    assert "Traceback" not in err and "Warning" not in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("mode", ["mobility", "steady", "fall"])
def test_underflowing_density_exits_2(tmp_path, capsys, mode):
    # m / length = 1e-300 / 6.3e150 underflows to a zero density
    cfg = far_ring(masses={"m": 1e-300})
    out = tmp_path / "out"
    assert main_printing_warnings([mode, "--config", str(write_config(tmp_path, cfg)),
                                   "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "density" in err
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


def test_oracle_error_estimate_over_its_bound_exits_3(tmp_path, monkeypatch, capsys):
    from slenderfall import kernel
    monkeypatch.setattr(kernel, "_ORACLE_RTOL", 1e-300)
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert cli.main(["kernel-check", "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "solver error" in err and "error estimate" in err
    assert not (out / "report.json").exists()


def test_cli_import_leaves_quadpack_unloaded():
    # the oracle imports scipy.integrate when it runs; scipy.linalg stays
    # loaded with the module, which measured faster on small bodies
    code = ("import sys, slenderfall.cli; "
            "print('scipy.integrate' in sys.modules, 'scipy.linalg' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.stdout.split() == ["False", "True"], proc.stderr


@pytest.mark.parametrize("block, key, value, code", [
    ("fluid", "mu", 1e200, 2),
    ("fluid", "mu", 1e300, 2),
    ("body", "length", 1e100, 0),
])
def test_straight_rod_fall_at_extreme_scales_runs_clean(tmp_path, capsys, block, key,
                                                        value, code):
    # |K_rr|^2 overflows on these rods; the test that the axial null
    # direction of the inertia carries no torque scales K_rr by its largest
    # entry first. The stiff rods are refused (dt > dt_max), the long one
    # runs, and neither prints a floating-point warning
    cfg = base_config(body={"kind": "rod", "length": 2.0},
                      fluid={"nondimensional": {"ell": 0.1, "re": 0.1}},
                      discretization={"panels": 8, "order": 4},
                      dynamics={"dt": 0.01, "t_end": 0.05})
    (cfg["fluid"]["nondimensional"] if block == "fluid" else cfg[block])[key] = value
    out = tmp_path / "out"
    assert main_printing_warnings(["fall", "--config", str(write_config(tmp_path, cfg)),
                                   "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Warning" not in err
    assert ("config error" in err and "dt_max" in err) == (code == 2)
    assert (out / "report.json").exists() == (code == 0)
