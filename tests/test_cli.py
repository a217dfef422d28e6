"""Command-line harness: exit codes, CSV contracts, determinism."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

from hdse.cli import (
    AMP_COLUMNS,
    SIMULATE_COLUMNS,
    SOLVE_COLUMNS,
    VERIFY_COLUMNS,
    build_spec,
    config_hash,
    load_config,
    main,
)
from hdse.errors import ConfigError
from hdse.solving import solve_system

QUAD_CONFIG = {
    "model": "m_estimator",
    "loss": {"kind": "quadratic"},
    "kappa": 0.5,
    "sigma_star": 1.0,
    "noise": {"kind": "gaussian", "mean": 0.0, "sd": 1.0},
    "n_grid": [300],
    "seeds": 2,
}

LASSO_CONFIG = {
    "model": "lasso",
    "kappa": 0.4,
    "sigma_star": 1.0,
    "lambda_star": 0.1,
    "prior": {"kind": "bernoulli_gaussian", "eps": 0.1, "sd": 3.1622776601683795},
    "noise": {"kind": "gaussian", "mean": 0.0, "sd": 1.0},
    "n_grid": [400],
    "seeds": 2,
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_solve_se_quadratic(tmp_path):
    cfg = write_config(tmp_path, QUAD_CONFIG)
    out = str(tmp_path / "r.csv")
    assert main(["solve-se", "--system", "m-loo", "--config", cfg, "--out", out]) == 0
    rows = read_rows(out)
    assert len(rows) == 1
    row = rows[0]
    assert float(row["tau1"]) == pytest.approx(1.0, abs=1e-8)
    assert float(row["lam1"]) == pytest.approx(1.0, abs=1e-8)
    assert row["status"] == "converged"
    assert row["tau2"] == ""          # absent parameters use the empty marker
    assert row["config_hash"] == config_hash(QUAD_CONFIG)
    assert row["quad_order"] == "61"
    assert set(rows[0]) == set(SOLVE_COLUMNS)


def test_solve_se_lasso_leaves_quad_order_empty(tmp_path):
    # the lasso systems run no quadrature, so no order is recorded
    cfg = write_config(tmp_path, LASSO_CONFIG)
    out = str(tmp_path / "r.csv")
    assert main(["solve-se", "--system", "lasso-amp", "--config", cfg, "--out", out]) == 0
    row = read_rows(out)[0]
    assert row["status"] == "converged"
    assert row["quad_order"] == ""


@pytest.mark.parametrize("argv", [["solve-se", "--system", "lasso-amp"],
                                  ["verify-equivalence", "--kappa-grid", "0.4"]],
                         ids=["solve-se", "verify-equivalence"])
def test_lasso_rejects_a_quad_order(tmp_path, capsys, argv):
    # nothing reads an order on the lasso, so setting one is a config error
    out = tmp_path / "r.csv"
    flagged = [*argv, "--config", write_config(tmp_path, LASSO_CONFIG), "--out", str(out)]
    assert main([*flagged, "--quad-order", "5"]) == 1
    keyed = [*argv, "--config", write_config(tmp_path, dict(LASSO_CONFIG, quad_order=61), "k.json"),
             "--out", str(out)]
    assert main(keyed) == 1
    assert capsys.readouterr().err.count("quad_order does not apply to the lasso model") == 2
    assert not out.exists()


def test_solve_se_unknown_system(tmp_path, capsys):
    cfg = write_config(tmp_path, QUAD_CONFIG)
    assert main(["solve-se", "--system", "nosuch", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "m-loo" in err  # names the valid systems


@pytest.mark.parametrize("argv", [
    ["solve-se", "--system", "m-loo"],                          # no --config
    ["solve-se", "--system", "m-loo", "--config", "c.json", "--bogus"],
    ["solve-se", "--system", "m-loo", "--config", "c.json", "--seed", "1"],
    ["verify-equivalence", "--config", "c.json", "--seed", "1"],
    ["amp", "--config", "c.json", "--tol", "1e-9"],
    ["amp", "--config", "c.json", "--max-iter", "5"],
    ["amp", "--config", "c.json", "--quad-order", "81"],
], ids=["missing-config", "unknown-flag", "solve-seed", "verify-seed", "amp-tol",
        "amp-max-iter", "amp-quad-order"])
def test_usage_errors_exit_with_the_config_code(argv, capsys):
    # exit 2 means non-convergence, so a usage error must not use it
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage: hdse" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve-se", "--help"])
    assert exc.value.code == 0
    assert "--system" in capsys.readouterr().out


def test_solve_se_nonexistence_exit_code(tmp_path):
    cfg = write_config(tmp_path, {"model": "logistic", "kappa": 0.9, "r_star": 5.0})
    out = str(tmp_path / "r.csv")
    assert main(["solve-se", "--system", "logistic-loo", "--config", cfg,
                 "--out", out]) == 2
    rows = read_rows(out)
    assert rows[0]["status"] == "likely_non_existence"


def test_solve_se_keeps_a_logistic_cgmt_root_at_zero_signal(tmp_path):
    # the root is read as kappa*mu^2 + alpha2^2, with no map to logistic_loo
    cfg = write_config(tmp_path, {"model": "logistic", "kappa": 0.1})
    out = str(tmp_path / "r.csv")
    assert main(["solve-se", "--system", "logistic-cgmt", "--config", cfg, "--out", out]) == 0
    row = read_rows(out)[0]
    assert row["status"] == "converged" and float(row["r_star"]) == 0.0
    alpha2, mu = float(row["alpha2"]), float(row["mu"])
    assert float(row["mse"]) == pytest.approx(0.1 * mu ** 2 + alpha2 ** 2, rel=1e-14)


def test_model_mismatch_exits_with_config_error(tmp_path):
    out = tmp_path / "r.csv"
    lasso_cfg = write_config(tmp_path, LASSO_CONFIG, "lasso.json")
    assert main(["solve-se", "--system", "m-loo", "--config", lasso_cfg,
                 "--out", str(out)]) == 1
    m_cfg = write_config(tmp_path, QUAD_CONFIG, "m.json")
    assert main(["verify-equivalence", "--pair", "lasso-amp:lasso-cgmt", "--config", m_cfg,
                 "--out", str(out)]) == 1
    # a source of another family fails even where the target has no root
    logistic_cfg = write_config(tmp_path, {"model": "logistic", "kappa": 0.9, "r_star": 5.0},
                                "logistic.json")
    assert main(["verify-equivalence", "--pair", "m-loo:logistic-loo", "--config", logistic_cfg,
                 "--out", str(out), "--kappa-grid", "0.9"]) == 1
    assert not out.exists()


# The parameter columns are derived from the SYSTEMS declarations; their order
# is part of the CSV contract, so the headers are pinned here as literals.
PARAMS_IN_ORDER = ("tau1", "lam1", "tau2", "lam2", "tau3", "alpha", "mu",
                   "gamma1", "sigma", "theta", "lam", "gamma2", "alpha1", "alpha2")
PROVENANCE = ("artifact_version", "config_hash", "quad_order")


def test_csv_headers_keep_their_columns_in_order(tmp_path):
    cfg = write_config(tmp_path, QUAD_CONFIG)
    solve, verify = str(tmp_path / "s.csv"), str(tmp_path / "v.csv")
    simulate = str(tmp_path / "m.csv")
    assert main(["solve-se", "--system", "m-loo", "--config", cfg, "--out", solve]) == 0
    assert main(["verify-equivalence", "--config", cfg, "--out", verify,
                 "--pair", "m-loo:m-amp", "--kappa-grid", "0.3"]) == 0
    assert main(["simulate", "--config", cfg, "--out", simulate, "--seed", "0"]) == 0
    with open(solve, newline="") as fh:
        assert tuple(next(csv.reader(fh))) == (
            "experiment_id", "system", "model", "kappa", "sigma_star", "r_star",
            "lambda_star", *PARAMS_IN_ORDER, "residual_norm", "iterations",
            "mse", "status", "wall_time_ms", *PROVENANCE)
    with open(simulate, newline="") as fh:
        assert tuple(next(csv.reader(fh))) == (
            "experiment_id", "system", "model", "n", "d", "seeds", "n_failed",
            "kappa", "sigma_star", "r_star", "lambda_star", "se_signal_strength",
            "predicted_mse", "empirical_mse_mean", "empirical_mse_sd",
            "predicted_inflation", "empirical_inflation_mean", "empirical_inflation_sd",
            "predicted_noise_scale", "empirical_noise_scale_mean", "design_variance",
            "status", *PROVENANCE)
    with open(verify, newline="") as fh:
        assert tuple(next(csv.reader(fh))) == (
            "experiment_id", "source_system", "target_system", "kappa",
            "sigma_star", "r_star", "lambda_star", *PARAMS_IN_ORDER,
            "source_residual_norm", "target_residual_norm", "tolerance",
            "passed", "mse_source", "mse_target", "status", "wall_time_ms", *PROVENANCE)


def test_config_schema_rejections(tmp_path):
    bad = dict(QUAD_CONFIG, mystery_key=1)
    path = write_config(tmp_path, bad)
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["solve-se", "--system", "m-loo", "--config", path]) == 1
    missing = {"model": "lasso"}
    path2 = write_config(tmp_path, missing, "m.json")
    assert main(["solve-se", "--system", "lasso-amp", "--config", path2]) == 1
    path3 = tmp_path / "not_json.json"
    path3.write_text("{")
    assert main(["solve-se", "--system", "m-loo", "--config", str(path3)]) == 1
    # huber needs its knee, and no other loss takes one
    for loss in ({"kind": "quadratic", "delta": 1.0}, {"kind": "huber"}):
        path4 = write_config(tmp_path, dict(QUAD_CONFIG, loss=loss), "loss.json")
        with pytest.raises(ConfigError, match="delta"):
            load_config(path4)
        assert main(["solve-se", "--system", "m-loo", "--config", path4]) == 1


def test_verify_equivalence_default_and_perturb(tmp_path):
    cfg = write_config(tmp_path, LASSO_CONFIG)
    out = str(tmp_path / "v.csv")
    assert main(["verify-equivalence", "--config", cfg, "--out", out,
                 "--kappa-grid", "0.25,0.5"]) == 0
    rows = read_rows(out)
    assert len(rows) == 2  # one pair, grid-size rows
    assert all(r["passed"] == "true" for r in rows)
    assert set(rows[0]) == set(VERIFY_COLUMNS)

    assert main(["verify-equivalence", "--config", cfg, "--out", out,
                 "--kappa-grid", "0.25", "--perturb", "0.01"]) == 3
    rows = read_rows(out)
    assert rows[0]["passed"] == "false"

    # at kappa = 0.01 the lasso_cgmt theta is within 1e-3 of its bound 1, so
    # the perturbed point leaves the domain: no root, so the row fails
    assert main(["verify-equivalence", "--config", cfg, "--out", out,
                 "--kappa-grid", "0.01", "--perturb", "0.01"]) == 3
    (row,) = read_rows(out)
    assert float(row["theta"]) > 1.0
    assert row["passed"] == "false" and row["status"] == "ok"
    assert row["target_residual_norm"] == ""


ABSOLUTE_CONFIG = dict(QUAD_CONFIG, loss={"kind": "absolute"}, kappa=0.95)


def test_solve_se_failure_row(tmp_path):
    # one Newton iteration from each start is too few at kappa = 0.95
    cfg = write_config(tmp_path, ABSOLUTE_CONFIG)
    out = str(tmp_path / "r.csv")
    assert main(["solve-se", "--system", "m-loo", "--config", cfg, "--out", out,
                 "--max-iter", "1"]) == 2
    (row,) = read_rows(out)
    assert row["status"] == "non_convergence"
    assert math.isfinite(float(row["residual_norm"]))
    assert row["iterations"] == "2"
    assert row["tau1"] == ""


def test_verify_solve_failure_rows(tmp_path):
    cfg = write_config(tmp_path, ABSOLUTE_CONFIG)
    out = str(tmp_path / "v.csv")
    assert main(["verify-equivalence", "--pair", "m-loo:m-amp", "--kappa-grid", "0.95,0.5",
                 "--config", cfg, "--out", out, "--max-iter", "1"]) == 2
    rows = read_rows(out)
    assert [r["status"] for r in rows] == ["solve_failed"] * 2
    assert [r["passed"] for r in rows] == ["false"] * 2


def test_verify_source_residual_is_the_source_solve(tmp_path):
    cfg = write_config(tmp_path, QUAD_CONFIG)
    out = str(tmp_path / "v.csv")
    assert main(["verify-equivalence", "--config", cfg, "--out", out,
                 "--pair", "m-loo:m-cgmt", "--kappa-grid", "0.3,0.7"]) == 0
    for row in read_rows(out):
        sol = solve_system(row["source_system"],
                           build_spec(QUAD_CONFIG, kappa=float(row["kappa"])))
        assert float(row["source_residual_norm"]) == sol.residual_norm
        assert sol.residual_norm <= 1e-9


def test_verify_pair_flag(tmp_path):
    cfg = write_config(tmp_path, QUAD_CONFIG)
    out = str(tmp_path / "v.csv")
    assert main(["verify-equivalence", "--config", cfg, "--out", out,
                 "--pair", "m-loo:m-cgmt", "--kappa-grid", "0.3,0.7"]) == 0
    rows = read_rows(out)
    assert [r["target_system"] for r in rows] == ["m_cgmt", "m_cgmt"]


def test_simulate_deterministic_and_exact_for_noiseless(tmp_path):
    noiseless = dict(QUAD_CONFIG, sigma_star=0.0,
                     noise={"kind": "gaussian", "mean": 0.0, "sd": 0.0})
    cfg = write_config(tmp_path, noiseless)
    out1, out2 = str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")
    assert main(["simulate", "--config", cfg, "--out", out1, "--seed", "3"]) == 0
    assert main(["simulate", "--config", cfg, "--out", out2, "--seed", "3"]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    rows = read_rows(out1)
    assert float(rows[0]["empirical_mse_mean"]) < 1e-20
    assert rows[0]["design_variance"] == "1/n"
    assert set(rows[0]) == set(SIMULATE_COLUMNS)


def test_simulate_quadratic_prediction(tmp_path):
    cfg = write_config(tmp_path, dict(QUAD_CONFIG, n_grid=[500], seeds=4))
    out = str(tmp_path / "s.csv")
    assert main(["simulate", "--config", cfg, "--out", out, "--seed", "1"]) == 0
    row = read_rows(out)[0]
    assert float(row["predicted_mse"]) == pytest.approx(1.0, abs=1e-7)
    assert float(row["empirical_mse_mean"]) == pytest.approx(1.0, rel=0.25)


def test_amp_command_trajectory_and_summary(tmp_path):
    cfg = write_config(tmp_path, LASSO_CONFIG)
    out = str(tmp_path / "a.csv")
    assert main(["amp", "--config", cfg, "--out", out, "--seed", "5",
                 "--emit-plot-data"]) == 0
    rows = read_rows(out)
    kinds = {r["row_type"] for r in rows}
    assert kinds == {"trajectory", "summary"}
    summary = [r for r in rows if r["row_type"] == "summary"][0]
    assert float(summary["gap_max_norm"]) < 1e-6
    assert float(summary["kkt_amp"]) < 1e-5
    assert summary["amp_converged"] == "true"
    trajectory = [r for r in rows if r["row_type"] == "trajectory"]
    gammas = [float(r["gamma"]) for r in trajectory if int(r["iter"]) >= 1]
    assert min(gammas) >= 0.0
    assert set(rows[0]) == set(AMP_COLUMNS)
    plot = read_rows(out + ".plot.csv")
    assert {r["series"] for r in plot} == {"gamma", "est_tau"}


def test_amp_rejects_non_lasso_config(tmp_path):
    cfg = write_config(tmp_path, QUAD_CONFIG)
    assert main(["amp", "--config", cfg, "--out", str(tmp_path / "a.csv")]) == 1


def test_solver_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, dict(QUAD_CONFIG, solver={"tol": 1e-6}))
    out = str(tmp_path / "r.csv")
    assert main(["solve-se", "--system", "m-loo", "--config", cfg, "--out", out,
                 "--tol", "1e-11", "--quad-order", "81"]) == 0
    row = read_rows(out)[0]
    assert float(row["residual_norm"]) <= 1e-11
    assert row["quad_order"] == "81"


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    # scipy.optimize is a quarter of the CLI import time; only the kappa >= 1
    # lasso start needs it and imports it itself.  A logistic solve-se, which
    # computes kappa_critical, does not load it either.
    cfg = write_config(tmp_path, {"model": "logistic", "kappa": 0.1, "r_star": 1.0,
                                  "prior": {"kind": "gaussian", "mean": 0.0, "sd": 1.0}})
    argv = ["solve-se", "--system", "logistic-loo", "--config", cfg,
            "--out", str(tmp_path / "r.csv")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for code in ("import sys, hdse.cli; print('scipy.optimize' in sys.modules)",
                 f"import sys, hdse.cli; assert hdse.cli.main({argv!r}) == 0; "
                 "print('scipy.optimize' in sys.modules)"):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout.strip() == "False"
