"""The four benchmark workloads: seeded inputs, one op, and the op's check.

A workload turns a seed into a list of ops (one pass).  The benchmark runs
passes until its time is up; ``se_sweep``, ``se_logistic`` and ``cli``
repeat the same list every pass, ``montecarlo`` draws the next Monte-Carlo
replicate.  hdse receives only the generated specs and configs.

Every op is checked after it returns, outside its timed interval:

* a ``verify_equivalence`` report must pass and the source root must satisfy
  its system to the solve tolerance;
* a fit must meet its own certificate (gradient or KKT below the fit
  tolerance), recomputed here from the returned coefficients;
* a CLI command must exit 0 and write rows that pass the same checks.

For the default seed the roots and per-replicate empirical MSE must also
match ``reference.json``, and the ops that fail at the recorded commit are
listed there.  Ops inside a recorded known-failure region are counted as
known failures, not as regressions; see ``README.md``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

from hdse import estimators, solving, systems, transforms
from hdse.expectations import bernoulli_gaussian, gaussian, two_point
from hdse.losses import LossSpec
from hdse.systems import ProblemSpec

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")

SOLVE_TOL = solving.SolverOptions().tol
# fit_m_estimator, fit_lasso_cd (KKT) and fit_logistic_mle all stop at 1e-8.
FIT_TOL = 1e-8

OK, KNOWN_FAILURE, FAILED = "ok", "known_failure", "failed"


@dataclass
class Op:
    """One unit of work: ``inputs`` is JSON-able, ``payload`` holds built objects."""

    id: str
    inputs: dict
    payload: object = None


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _rng(workload: str, seed: int) -> random.Random:
    # String seeding hashes with sha512, so the stream is the same on every
    # Python version and platform.
    return random.Random(f"{workload}:{seed}")


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def in_region(inputs: dict, region: dict) -> bool:
    for key, want in region.items():
        if key == "kappa_min":
            if inputs["kappa"] < want:
                return False
        elif key == "kappa_max":
            if inputs["kappa"] > want:
                return False
        elif key == "lambda_max":
            if inputs.get("lambda_star", 0.0) > want:
                return False
        elif inputs.get(key) != want:
            return False
    return True


def describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"[:300]


# ---------------------------------------------------------------------------
# State-equation sweeps


M_LOSSES = {"quadratic": LossSpec("quadratic"), "huber": LossSpec("huber", 1.345),
            "absolute": LossSpec("absolute")}
M_NOISES = {"gaussian": gaussian(0.0, 1.0), "two_point": two_point(1.0, 0.5)}
M_PAIRS = (("m_loo", "m_amp"), ("m_amp", "m_loo"), ("m_loo", "m_cgmt"), ("m_cgmt", "m_loo"))
# A stratum is centre +- half-width; the seed draws one kappa per stratum and case.
M_KAPPA_STRATA = (tuple(round(0.05 * i, 2) for i in range(1, 20)), 0.01)

LASSO_LAMBDAS = (0.01, 0.03, 0.1, 0.3, 1.0)
LASSO_PAIRS = (("lasso_amp", "lasso_cgmt"), ("lasso_cgmt", "lasso_amp"))
LASSO_KAPPA_STRATA = (tuple(round(0.1 + 0.2 * i, 2) for i in range(10)), 0.02)
LASSO_PRIOR = bernoulli_gaussian(0.1, math.sqrt(10.0))

LOGISTIC_R = (0.5, 1.0, 2.0)
LOGISTIC_PAIRS = (("logistic_cgmt", "logistic_loo"), ("logistic_loo", "logistic_cgmt"))
# Strata as fractions of the existence boundary kappa_c(r) = min_t E[(Z - tV)_+^2]
# (Candes & Sur 2020), V the label-tilted variable; computed to 1e-5 with a
# 121-point Gauss-Hermite rule.
LOGISTIC_KAPPA_CRITICAL = {0.5: 0.48161, 1.0: 0.43894, 2.0: 0.34493}
LOGISTIC_FRACTION_STRATA = ((0.1, 0.4, 0.7), 0.02)


def _strata(centres_halfwidth, scale=1.0):
    centres, half = centres_halfwidth
    return [((c - half) * scale, (c + half) * scale) for c in centres]


class SeWorkload:
    """Ops are ``verify_equivalence(source, target, spec)`` calls."""

    name = ""

    def __init__(self, reference: dict):
        self.regions = reference["known_failure_regions"].get(self.name, [])
        self.expected = reference["ops"].get(self.name, {})
        self._ops = None

    def pass_ops(self, seed: int, pass_index: int) -> list[Op]:
        if self._ops is None:
            self._ops = self.build_ops(seed)
        return self._ops

    def run(self, op: Op):
        source, target, spec = op.payload
        return transforms.verify_equivalence(source, target, spec)

    def check(self, op: Op, report, error, reference_seed: bool):
        expected = self.expected.get(op.id) if reference_seed else None
        if reference_seed and (expected is None or expected["kappa"] != op.inputs["kappa"]):
            return FAILED, "inputs differ from the reference"
        problem = describe(error) if error is not None else self.check_report(op, report)
        if problem is None:
            if expected is not None and "root" in expected:
                return self._compare_root(report, expected)
            return OK, ""
        if expected is not None:
            known = "failure" in expected
        else:
            known = any(in_region(op.inputs, r) for r in self.regions)
        return (KNOWN_FAILURE if known else FAILED), problem

    def check_report(self, op: Op, report):
        source, _, spec = op.payload
        if not report.passed:
            return (f"target residual {report.target_residual_norm:.3e} above "
                    f"tolerance {report.tolerance:.1e}")
        sdef = systems.SYSTEMS[source]
        root = np.array([report.source_solution[n] for n in sdef.params])
        norm = float(np.max(np.abs(sdef.residual(root, spec))))
        if not norm <= SOLVE_TOL:
            return f"source residual {norm:.3e} above the solve tolerance {SOLVE_TOL:.0e}"
        return None

    @staticmethod
    def _compare_root(report, expected):
        gap = max(abs(report.source_solution[k] - v) for k, v in expected["root"].items())
        if gap > expected["root_tol"]:
            return FAILED, f"root differs from the reference by {gap:.3e} > {expected['root_tol']:.1e}"
        return OK, ""



def _se_op(op_id: str, inputs: dict, spec: ProblemSpec) -> Op:
    return Op(op_id, inputs, (inputs["source"], inputs["target"], spec))


class SeSweep(SeWorkload):
    """Dense kappa risk curves of the M-estimation and lasso systems."""

    name = "se_sweep"

    def build_ops(self, seed: int) -> list[Op]:
        rng = _rng(self.name, seed)
        ops = []
        for loss_name, loss in M_LOSSES.items():
            for noise_name, noise in M_NOISES.items():
                for source, target in M_PAIRS:
                    for s, (lo, hi) in enumerate(_strata(M_KAPPA_STRATA)):
                        kappa = _draw(rng, lo, hi)
                        inputs = {"family": "m_estimator", "loss": loss_name,
                                  "noise": noise_name, "source": source,
                                  "target": target, "kappa": kappa}
                        spec = ProblemSpec("m_estimator", kappa=kappa, loss=loss, noise=noise)
                        ops.append(_se_op(f"m/{loss_name}/{noise_name}/{source}>{target}/s{s}",
                                          inputs, spec))
        for lam in LASSO_LAMBDAS:
            for source, target in LASSO_PAIRS:
                for s, (lo, hi) in enumerate(_strata(LASSO_KAPPA_STRATA)):
                    kappa = _draw(rng, lo, hi)
                    inputs = {"family": "lasso", "lambda_star": lam, "source": source,
                              "target": target, "kappa": kappa}
                    ops.append(_se_op(f"lasso/{lam:g}/{source}>{target}/s{s}", inputs,
                                      _lasso_spec(kappa, lam)))
        rng.shuffle(ops)
        return ops

    def warmup_ops(self) -> list[Op]:
        ops = []
        for loss_name in ("quadratic", "absolute"):
            inputs = {"family": "m_estimator", "loss": loss_name, "noise": "two_point",
                      "source": "m_loo", "target": "m_cgmt", "kappa": 0.3}
            spec = ProblemSpec("m_estimator", kappa=0.3, loss=M_LOSSES[loss_name],
                               noise=M_NOISES["two_point"])
            ops.append(_se_op(f"warmup/{loss_name}", inputs, spec))
        inputs = {"family": "lasso", "lambda_star": 0.1, "source": "lasso_amp",
                  "target": "lasso_cgmt", "kappa": 0.5}
        ops.append(_se_op("warmup/lasso", inputs, _lasso_spec(0.5, 0.1)))
        return ops


def _lasso_spec(kappa: float, lam: float) -> ProblemSpec:
    return ProblemSpec("lasso", kappa=kappa, lambda_star=lam, prior=LASSO_PRIOR,
                       noise=gaussian(0.0, 1.0))


class SeLogistic(SeWorkload):
    """Few expensive logistic solves below the existence boundary."""

    name = "se_logistic"

    def build_ops(self, seed: int) -> list[Op]:
        rng = _rng(self.name, seed)
        ops = []
        for r in LOGISTIC_R:
            kc = LOGISTIC_KAPPA_CRITICAL[r]
            for source, target in LOGISTIC_PAIRS:
                for s, (lo, hi) in enumerate(_strata(LOGISTIC_FRACTION_STRATA, kc)):
                    kappa = _draw(rng, lo, hi)
                    inputs = {"family": "logistic", "r_star": r, "source": source,
                              "target": target, "kappa": kappa}
                    ops.append(_se_op(f"logistic/{r:g}/{source}>{target}/s{s}", inputs,
                                      ProblemSpec("logistic", kappa=kappa, r_star=r)))
        rng.shuffle(ops)
        return ops

    def warmup_ops(self) -> list[Op]:
        inputs = {"family": "logistic", "r_star": 1.0, "source": "logistic_cgmt",
                  "target": "logistic_loo", "kappa": 0.1}
        return [_se_op("warmup/logistic", inputs,
                       ProblemSpec("logistic", kappa=0.1, r_star=1.0))]


# ---------------------------------------------------------------------------
# Monte Carlo


MC_MODELS = {
    # name: (spec, n); the specs are those of the shipped sample configs.
    "huber": (ProblemSpec("m_estimator", kappa=0.3, loss=LossSpec("huber", 1.345),
                          noise=gaussian(0.0, 1.0)), 3000),
    "lasso": (_lasso_spec(0.5, 0.1), 2000),
    "logistic": (ProblemSpec("logistic", kappa=0.1, r_star=1.0, prior=gaussian(0.0, 1.0)), 4000),
}
MC_WARMUP_N = 300


def mc_replicate(model: str, spec: ProblemSpec, n: int, seed: int, replicate: int):
    """One Monte-Carlo replicate: generate the data, then fit the estimator."""
    if model == "logistic":
        data = estimators.gen_logistic_data(spec, n, seed, replicate)
        return data, estimators.fit_logistic_mle(data)
    data = estimators.gen_linear_data(spec, n, seed, replicate)
    if model == "lasso":
        return data, estimators.fit_lasso_cd(data, spec.lambda_star)
    return data, estimators.fit_m_estimator(data)


def fit_certificate(model: str, data, beta) -> float:
    """The fit's own stopping quantity, recomputed from its coefficients."""
    X, y = data.design, data.response
    if model == "huber":
        r = y - X @ beta
        delta = data.spec.loss.delta
        return float(np.max(np.abs(X.T @ np.clip(r, -delta, delta))))
    if model == "lasso":
        lam = data.spec.lambda_star
        g = X.T @ (X @ beta - y)
        active = beta != 0.0
        viol = np.concatenate([np.abs(g[active] + lam * np.sign(beta[active])),
                               np.maximum(np.abs(g[~active]) - lam, 0.0)])
        return float(np.max(viol, initial=0.0))
    grad = X.T @ (y * expit(-y * (X @ beta))) / data.n
    return float(np.max(np.abs(grad)))


def mc_mse(data, beta) -> float:
    return float(np.sum((beta - data.truth) ** 2) / data.n)


class MonteCarlo:
    """One op is one replicate of one model; pass p uses replicate p."""

    name = "montecarlo"

    def __init__(self, reference: dict):
        self.expected = reference["ops"].get(self.name, {})

    def pass_ops(self, seed: int, pass_index: int) -> list[Op]:
        ops = []
        for model, (spec, n) in MC_MODELS.items():
            inputs = {"model": model, "n": n, "seed": seed, "replicate": pass_index}
            ops.append(Op(f"{model}/r{pass_index}", inputs, (model, spec, n, seed, pass_index)))
        _rng(self.name, f"{seed}:{pass_index}").shuffle(ops)
        return ops

    def warmup_ops(self) -> list[Op]:
        return [Op(f"warmup/{model}", {"model": model, "n": MC_WARMUP_N},
                   (model, spec, MC_WARMUP_N, 0, 0))
                for model, (spec, _) in MC_MODELS.items()]

    def run(self, op: Op):
        return mc_replicate(*op.payload)

    def check(self, op: Op, result, error, reference_seed: bool):
        if error is not None:
            return FAILED, describe(error)
        model = op.payload[0]
        data, beta = result
        cert = fit_certificate(model, data, beta)
        if not cert < FIT_TOL:
            return FAILED, f"fit certificate {cert:.3e} not below {FIT_TOL:.0e}"
        expected = self.expected.get(op.id) if reference_seed else None
        if expected is not None:
            gap = abs(mc_mse(data, beta) - expected["mse"])
            if gap > expected["mse_tol"]:
                return FAILED, (f"empirical MSE differs from the reference by {gap:.3e} "
                                f"> {expected['mse_tol']:.1e}")
        return OK, ""


# ---------------------------------------------------------------------------
# Command line


CLI_HUBER = {"model": "m_estimator", "loss": {"kind": "huber", "delta": 1.345},
             "sigma_star": 1.0, "noise": {"kind": "gaussian", "mean": 0.0, "sd": 1.0}}
CLI_LASSO = {"model": "lasso", "sigma_star": 1.0, "lambda_star": 0.1,
             "prior": {"kind": "bernoulli_gaussian", "eps": 0.1, "sd": math.sqrt(10.0)},
             "noise": {"kind": "gaussian", "mean": 0.0, "sd": 1.0}}
CLI_LOGISTIC = {"model": "logistic", "r_star": 1.0,
                "prior": {"kind": "gaussian", "mean": 0.0, "sd": 1.0}}
CLI_TIMEOUT_S = 120


def cli_commands(seed: int) -> list[tuple[str, dict, list[str]]]:
    """(name, config, extra argv) per command of one pass."""
    rng = _rng("cli", seed)
    k = {name: _draw(rng, lo, hi) for name, lo, hi in (
        ("m", 0.1, 0.7), ("lasso", 0.2, 1.5), ("logistic", 0.05, 0.3),
        ("verify_m_lo", 0.1, 0.4), ("verify_m_hi", 0.4, 0.7),
        ("verify_lasso_lo", 0.1, 0.6), ("verify_lasso_hi", 0.6, 1.5))}
    return [
        ("solve-m", {**CLI_HUBER, "kappa": k["m"]}, ["solve-se", "--system", "m-cgmt"]),
        ("solve-lasso", {**CLI_LASSO, "kappa": k["lasso"]},
         ["solve-se", "--system", "lasso-cgmt"]),
        ("solve-logistic", {**CLI_LOGISTIC, "kappa": k["logistic"]},
         ["solve-se", "--system", "logistic-loo"]),
        ("verify-m", {**CLI_HUBER, "kappa": k["verify_m_lo"]},
         ["verify-equivalence", "--pair", "m-loo:m-cgmt",
          "--kappa-grid", f"{k['verify_m_lo']},{k['verify_m_hi']}"]),
        ("verify-lasso", {**CLI_LASSO, "kappa": k["verify_lasso_lo"]},
         ["verify-equivalence",
          "--kappa-grid", f"{k['verify_lasso_lo']},{k['verify_lasso_hi']}"]),
        ("simulate", {**CLI_HUBER, "kappa": 0.3, "n_grid": [400], "seeds": 3},
         ["simulate", "--seed", str(seed)]),
        ("amp", {**CLI_LASSO, "kappa": 0.5, "n_grid": [500]}, ["amp", "--seed", str(seed)]),
    ]


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _num(row: dict, key: str) -> float:
    return float(row[key]) if row.get(key) not in (None, "") else math.nan


class Cli:
    """One op is one ``python -m hdse`` command on a generated config."""

    name = "cli"

    def __init__(self, reference: dict, workdir: Path, src_dir: Path):
        self.expected = reference["ops"].get(self.name, {})
        self.workdir = workdir
        self.env = {**os.environ, "PYTHONPATH": str(src_dir)}
        self._ops = None

    def _make_op(self, op_id: str, cfg: dict, argv: list[str]) -> Op:
        config = self.workdir / f"{op_id}.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        out = self.workdir / f"{op_id}.csv"
        full = [*argv, "--config", str(config), "--out", str(out)]
        return Op(op_id, {"command": argv[0], "config": cfg, "argv": argv}, (full, out))

    def pass_ops(self, seed: int, pass_index: int) -> list[Op]:
        if self._ops is None:
            self._ops = [self._make_op(name, cfg, argv) for name, cfg, argv in cli_commands(seed)]
        return self._ops

    def warmup_ops(self) -> list[Op]:
        cfg = {"model": "m_estimator", "loss": {"kind": "quadratic"}, "kappa": 0.5}
        return [self._make_op("warmup", cfg, ["solve-se", "--system", "m-loo"])]

    def run(self, op: Op):
        argv, _ = op.payload
        proc = subprocess.run([sys.executable, "-m", "hdse", *argv], env=self.env,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stderr

    def run_inprocess(self, op: Op):
        from hdse import cli

        argv, _ = op.payload
        return cli.main(argv), ""

    def check(self, op: Op, result, error, reference_seed: bool):
        if error is not None:
            return FAILED, describe(error)
        code, stderr = result
        if code != 0:
            return FAILED, f"exit code {code}: {stderr.strip()[-300:]}"
        rows = read_rows(op.payload[1])
        problem = self._check_rows(op.inputs["command"], rows)
        if problem is not None:
            return FAILED, problem
        expected = self.expected.get(op.id) if reference_seed else None
        if reference_seed:
            if expected is None or expected["config"] != op.inputs["config"]:
                return FAILED, "inputs differ from the reference"
            for key, want in expected["values"].items():
                row_index, column = key.split(":")
                gap = abs(_num(rows[int(row_index)], column) - want)
                if not gap <= expected["tol"][key]:
                    return FAILED, (f"{column} of row {row_index} differs from the "
                                    f"reference by {gap:.3e} > {expected['tol'][key]:.1e}")
        return OK, ""

    @staticmethod
    def _check_rows(command: str, rows: list[dict]):
        if not rows:
            return "no rows written"
        if command == "solve-se":
            row = rows[0]
            if row["status"] != "converged" or not _num(row, "residual_norm") <= SOLVE_TOL:
                return f"solve status {row['status']} residual {row['residual_norm']}"
        elif command == "verify-equivalence":
            bad = [r["experiment_id"] for r in rows if r["passed"] != "true"]
            if bad:
                return f"equivalence failed for {bad}"
        elif command == "simulate":
            row = rows[0]
            if row["status"] != "ok" or row["n_failed"] != "0":
                return f"simulate status {row['status']} with {row['n_failed']} failures"
        elif command == "amp":
            summary = rows[-1]
            if summary["status"] != "converged" or not _num(summary, "kkt_cd") < FIT_TOL \
                    or not _num(summary, "gap_max_norm") < 1e-6:
                return (f"amp status {summary['status']} kkt_cd {summary['kkt_cd']} "
                        f"gap {summary['gap_max_norm']}")
        return None


WORKLOADS = ("se_sweep", "se_logistic", "montecarlo", "cli")


def make_workload(name: str, reference: dict, workdir: Path, src_dir: Path):
    if name == "se_sweep":
        return SeSweep(reference)
    if name == "se_logistic":
        return SeLogistic(reference)
    if name == "montecarlo":
        return MonteCarlo(reference)
    if name == "cli":
        return Cli(reference, workdir, src_dir)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def timed(fn, *args):
    """Run ``fn(*args)``; return (value, error, seconds).  Ops may raise anything."""
    t0 = time.perf_counter()
    try:
        value, error = fn(*args), None
    except Exception as exc:  # an op boundary: the failure is recorded, the run goes on
        value, error = None, exc
    return value, error, time.perf_counter() - t0
