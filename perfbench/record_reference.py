"""Record ``reference.json``: the default seed's roots, MSEs and known failures.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/record_reference.py

Run it only at a commit whose results are the intended reference; the
benchmark then requires later commits to reproduce them within tolerances
derived from the solve and fit tolerances:

* roots: two points whose residual max-norm is below ``eps`` lie within
  ``2 eps ||J^-1||_inf`` of each other (``J`` the system's Jacobian at the
  root), times a safety factor of 10 for the linearization;
* empirical MSE: two fits whose certificate is below ``FIT_TOL`` differ by
  at most ``2 sqrt(d) FIT_TOL / lambda_min(H)`` in coefficients (``H`` the
  Hessian of the fitted objective), which moves the MSE by at most
  ``(2 ||beta - beta*|| delta + delta^2) / n``, times the same factor.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import workloads as W
from hdse import cli as hdse_cli
from hdse import estimators, solving, systems, transforms

SAFETY = 10.0
MC_REPLICATES = 30

# Where the recorded commit fails, found by sweeping many seeds.  An op
# that fails inside one of these regions is a known failure, outside them a
# regression.  Keys other than kappa_min/kappa_max/lambda_max must equal the
# op's input of the same name.
KNOWN_FAILURE_REGIONS = {
    "se_sweep": [
        {"family": "m_estimator", "loss": "absolute", "kappa_min": 0.885},
        {"family": "lasso", "lambda_max": 0.03, "kappa_min": 0.95, "kappa_max": 1.35},
    ],
    "se_logistic": [
        {"family": "logistic", "r_star": 2.0, "source": "logistic_cgmt", "kappa_max": 0.05},
    ],
}


def root_tol(system: str, spec, root: dict, eps: float) -> float:
    sdef = systems.SYSTEMS[system]
    x = np.array([root[n] for n in sdef.params])
    jac = solving.evaluate_jacobian_fd(lambda v: sdef.residual(v, spec), x,
                                       solving.SolverOptions().fd_step)
    return SAFETY * 2.0 * eps * float(np.linalg.norm(np.linalg.inv(jac), np.inf))


def mse_tol(model: str, data, beta) -> float:
    X, n, d = data.design, data.n, data.d
    if model == "huber":
        r = data.response - X @ beta
        curv = (np.abs(r) <= data.spec.loss.delta).astype(float)
        hess = X.T @ (curv[:, None] * X)
    elif model == "lasso":
        hess = X.T @ X
    else:
        w = 1.0 / (1.0 + np.exp(-data.response * (X @ beta)))
        hess = X.T @ ((w * (1.0 - w))[:, None] * X) / n
    delta = 2.0 * math.sqrt(d) * W.FIT_TOL / float(np.linalg.eigvalsh(hess)[0])
    dist = float(np.linalg.norm(beta - data.truth))
    return SAFETY * (2.0 * dist * delta + delta * delta) / n


def record_se(workload) -> dict:
    out = {}
    for op in workload.pass_ops(W.DEFAULT_SEED, 0):
        value, error, _ = W.timed(workload.run, op)
        problem = W.describe(error) if error is not None else workload.check_report(op, value)
        entry = {"kappa": op.inputs["kappa"]}
        if problem is not None:
            if not any(W.in_region(op.inputs, r) for r in workload.regions):
                raise SystemExit(f"{op.id} fails outside the known-failure regions: {problem}")
            entry["failure"] = problem
        else:
            source, _, spec = op.payload
            entry["root"] = value.source_solution
            entry["root_tol"] = root_tol(source, spec, value.source_solution, W.SOLVE_TOL)
        out[op.id] = entry
        print(op.id, "failure" if problem else "ok", file=sys.stderr)
    return out


def record_montecarlo() -> dict:
    out = {}
    for rep in range(MC_REPLICATES):
        for model, (spec, n) in W.MC_MODELS.items():
            data, beta = W.mc_replicate(model, spec, n, W.DEFAULT_SEED, rep)
            out[f"{model}/r{rep}"] = {"mse": W.mc_mse(data, beta),
                                      "mse_tol": mse_tol(model, data, beta)}
        print("replicate", rep, file=sys.stderr)
    return out


def record_cli(workload) -> dict:
    out = {}
    for op in workload.pass_ops(W.DEFAULT_SEED, 0):
        status, detail = workload.check(op, workload.run(op), None, False)
        if status != W.OK:
            raise SystemExit(f"{op.id}: {detail}")
        rows = W.read_rows(op.payload[1])
        cfg = op.inputs["config"]
        values, tols = {}, {}
        if op.inputs["command"] in ("solve-se", "verify-equivalence"):
            for i, row in enumerate(rows):
                system = row.get("system") or row["target_system"]
                spec = hdse_cli.build_spec(cfg, kappa=float(row["kappa"]))
                params = {n: float(row[n]) for n in systems.SYSTEMS[system].params}
                eps = W.SOLVE_TOL if "system" in row else float(row["tolerance"])
                tol = root_tol(system, spec, params, eps)
                for name, value in params.items():
                    values[f"{i}:{name}"], tols[f"{i}:{name}"] = value, tol
        elif op.inputs["command"] == "simulate":
            spec = hdse_cli.build_spec(cfg)
            n = cfg["n_grid"][0]
            per_rep = []
            for rep in range(cfg["seeds"]):
                data = estimators.gen_linear_data(spec, n, W.DEFAULT_SEED, rep)
                per_rep.append(mse_tol("huber", data, estimators.fit_m_estimator(data)))
            values["0:empirical_mse_mean"] = float(rows[0]["empirical_mse_mean"])
            tols["0:empirical_mse_mean"] = float(np.mean(per_rep))
        out[op.id] = {"config": cfg, "values": values, "tol": tols}
        print(op.id, "ok", file=sys.stderr)
    return out


def main() -> int:
    empty = {"seed": W.DEFAULT_SEED, "known_failure_regions": KNOWN_FAILURE_REGIONS, "ops": {}}
    out = W.REFERENCE_PATH.parent / "out"
    out.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=out))
    src = Path(transforms.__file__).resolve().parent.parent
    try:
        ops = {
            "se_sweep": record_se(W.SeSweep(empty)),
            "se_logistic": record_se(W.SeLogistic(empty)),
            "cli": record_cli(W.Cli(empty, workdir, src)),
            "montecarlo": record_montecarlo(),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reference = {**empty, "ops": ops}
    W.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
