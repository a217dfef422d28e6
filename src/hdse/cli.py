"""Command-line harness: config ingestion, orchestration, CSV reporting.

Subcommands
    solve-se             solve one state-equation system for the configured spec
    verify-equivalence   solve-map-substitute checks over a kappa grid
    simulate             Monte-Carlo replicates of the actual estimator vs SE
    amp                  AMP vs coordinate descent on a single instance

Exit codes: 0 success, 1 configuration error, 2 non-convergence or estimator
failure, 3 equivalence failure.  Output CSVs are fully rewritten with a
header row; every row carries the artifact version, a hash of the effective
config, and the quadrature order.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from importlib import resources

import jsonschema
import numpy as np

from . import __version__, estimators, losses
from .errors import (
    ConfigError,
    HdseError,
    LikelyNonExistence,
    NonConvergence,
    NumericError,
)
from .expectations import DistributionSpec, bernoulli_gaussian, gaussian, point_mass, two_point
from .solving import SolverOptions, solve_system
from .systems import ProblemSpec, SeSolution, SYSTEMS, mse_candidates, system_for
from .transforms import CANONICAL, verify_equivalence

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NONCONVERGENCE = 2
EXIT_EQUIVALENCE = 3

PARAM_COLUMNS = ("tau1", "lam1", "tau2", "lam2", "tau3", "alpha", "mu",
                 "gamma1", "sigma", "theta", "lam", "gamma2", "alpha1", "alpha2")

_PROVENANCE = ("artifact_version", "config_hash", "quad_order")

SOLVE_COLUMNS = ("experiment_id", "system", "model", "kappa", "sigma_star", "r_star",
                 "lambda_star", *PARAM_COLUMNS, "residual_norm", "iterations",
                 "mse_nominal", "mse_reduction_checked", "status", "wall_time_ms",
                 *_PROVENANCE)

VERIFY_COLUMNS = ("experiment_id", "source_system", "target_system", "kappa",
                  "sigma_star", "r_star", "lambda_star", *PARAM_COLUMNS,
                  "source_residual_norm", "target_residual_norm", "tolerance",
                  "passed", "mse_source", "mse_target", "status", "wall_time_ms",
                  *_PROVENANCE)

# No wall time here: simulate output is byte-identical for a fixed seed set.
SIMULATE_COLUMNS = ("experiment_id", "system", "model", "n", "d", "seeds", "n_failed",
                    "kappa", "sigma_star", "r_star", "lambda_star",
                    "se_signal_strength", "predicted_mse_nominal",
                    "predicted_mse_reduction_checked", "empirical_mse_mean",
                    "empirical_mse_sd", "predicted_inflation",
                    "empirical_inflation_mean", "empirical_inflation_sd",
                    "predicted_noise_scale", "empirical_noise_scale_mean",
                    "design_variance", "status", *_PROVENANCE)

AMP_COLUMNS = ("experiment_id", "row_type", "n", "d", "lambda_star", "seed", "iter",
               "gamma", "est_tau", "gap_max_norm", "kkt_amp", "kkt_cd",
               "amp_converged", "amp_diverged", "amp_iterations", "status",
               "wall_time_ms", *_PROVENANCE)

_CLI_SYSTEMS = {name.replace("_", "-"): name for name in SYSTEMS}

_DEFAULT_KAPPA_GRID = {
    "m_estimator": (0.1, 0.3, 0.5, 0.7),
    "lasso": (0.1, 0.3, 0.5, 0.7),
    # the logistic root exists only below the phase boundary, which depends
    # on r_star; the default grid stays well inside it
    "logistic": (0.05, 0.1, 0.15),
}

_DEFAULT_PAIRS = {
    "m_estimator": (("m_loo", "m_amp"), ("m_loo", "m_cgmt")),
    "lasso": (("lasso_amp", "lasso_cgmt"),),
    "logistic": (("logistic_cgmt", "logistic_loo"),),
}


def _schema() -> dict:
    with resources.files("hdse").joinpath("config_schema.json").open("rb") as fh:
        return json.load(fh)


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    try:
        jsonschema.validate(cfg, _schema())
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config {path} failed validation: {exc.message}") from exc
    return cfg


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


_DISTRIBUTIONS = {"point_mass": point_mass, "gaussian": gaussian,
                  "two_point": two_point, "bernoulli_gaussian": bernoulli_gaussian}


def _parse_distribution(obj: dict) -> DistributionSpec:
    # the schema keys are the constructor argument names
    params = {k: v for k, v in obj.items() if k != "kind"}
    return _DISTRIBUTIONS[obj["kind"]](**params)


def build_spec(cfg: dict, quad_order: int | None = None,
               kappa: float | None = None) -> ProblemSpec:
    loss = None
    if "loss" in cfg:
        loss = losses.LossSpec(cfg["loss"]["kind"], cfg["loss"].get("delta"))
    return ProblemSpec(
        model=cfg["model"],
        kappa=cfg["kappa"] if kappa is None else kappa,
        loss=loss,
        prior=_parse_distribution(cfg["prior"]) if "prior" in cfg else None,
        noise=_parse_distribution(cfg["noise"]) if "noise" in cfg else None,
        sigma_star=cfg.get("sigma_star"),
        r_star=cfg.get("r_star"),
        lambda_star=cfg.get("lambda_star", 0.0),
        quad_order=quad_order if quad_order is not None else cfg.get("quad_order"),
    )


def build_solver_options(cfg: dict, args) -> SolverOptions:
    solver = dict(cfg.get("solver", {}))
    if getattr(args, "tol", None) is not None:
        solver["tol"] = args.tol
    if getattr(args, "max_iter", None) is not None:
        solver["max_iter"] = args.max_iter
    return SolverOptions(**solver)


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        if not np.isfinite(value):
            return ""
        return format(value, ".17g")
    return str(value)


class ReportWriter:
    """Rewrites one CSV with a fixed column set; RFC-4180 via the csv module."""

    def __init__(self, path: str, columns):
        self.path = path
        self.columns = tuple(columns)
        self.rows: list[dict] = []
        self.plot_rows: list[tuple] = []

    def add(self, **fields):
        unknown = set(fields) - set(self.columns)
        if unknown:
            raise ValueError(f"columns not in schema: {sorted(unknown)}")
        self.rows.append(fields)

    def add_plot(self, experiment_id, series, x, y):
        self.plot_rows.append((experiment_id, series, x, y))

    def write(self, emit_plot_data: bool = False):
        with open(self.path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([_fmt(row.get(col)) for col in self.columns])
        if emit_plot_data:
            plot_path = self.path + ".plot.csv"
            with open(plot_path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(("experiment_id", "series", "x", "y"))
                for row in self.plot_rows:
                    writer.writerow([_fmt(v) for v in row])


def _cli_system(name: str) -> str:
    if name in _CLI_SYSTEMS:
        return _CLI_SYSTEMS[name]
    if name in SYSTEMS:
        return name
    valid = ", ".join(sorted(_CLI_SYSTEMS))
    raise ConfigError(f"unknown system {name!r}; valid systems: {valid}")


def _provenance(cfg: dict, spec: ProblemSpec) -> dict:
    return {
        "artifact_version": __version__,
        "config_hash": config_hash(cfg),
        "quad_order": spec.default_quad_order(),
    }


def _spec_fields(spec: ProblemSpec) -> dict:
    return {
        "kappa": spec.kappa,
        "sigma_star": spec.sigma_star,
        "r_star": spec.r_star,
        "lambda_star": spec.lambda_star,
    }


# ---------------------------------------------------------------------------
# solve-se


def cmd_solve_se(args) -> int:
    cfg = load_config(args.config)
    system = _cli_system(args.system)
    spec = build_spec(cfg, quad_order=args.quad_order)
    if system_for(system).model != spec.model:
        raise ConfigError(
            f"system {system} belongs to model {system_for(system).model}, "
            f"config has {spec.model}")
    opts = build_solver_options(cfg, args)
    out = args.out or cfg.get("output_path") or "solve_se.csv"
    writer = ReportWriter(out, SOLVE_COLUMNS)

    status, exit_code = "converged", EXIT_OK
    params, residual_norm, iterations = {}, None, None
    mse_nominal = mse_reduction = None
    t0 = time.perf_counter()
    try:
        sol = solve_system(system, spec, opts=opts)
        params = sol.params
        residual_norm, iterations = sol.residual_norm, sol.iterations
        mse_nominal, mse_reduction = mse_candidates(sol, spec)
    except LikelyNonExistence as exc:
        status, exit_code = "likely_non_existence", EXIT_NONCONVERGENCE
        residual_norm = exc.residual_norm
        print(f"solve-se: {exc}", file=sys.stderr)
    except (NonConvergence, NumericError) as exc:
        status, exit_code = "non_convergence", EXIT_NONCONVERGENCE
        residual_norm = getattr(exc, "residual_norm", None)
        print(f"solve-se: {exc}", file=sys.stderr)
    wall = (time.perf_counter() - t0) * 1e3

    writer.add(experiment_id=f"solve:{system}:000", system=system, model=spec.model,
               **_spec_fields(spec), **params, residual_norm=residual_norm,
               iterations=iterations, mse_nominal=mse_nominal,
               mse_reduction_checked=mse_reduction, status=status, wall_time_ms=wall,
               **_provenance(cfg, spec))
    for name, value in params.items():
        writer.add_plot(f"solve:{system}:000", name, "", value)
    writer.write(args.emit_plot_data)
    return exit_code


# ---------------------------------------------------------------------------
# verify-equivalence


def cmd_verify_equivalence(args) -> int:
    cfg = load_config(args.config)
    base_spec = build_spec(cfg, quad_order=args.quad_order)
    opts = build_solver_options(cfg, args)
    out = args.out or cfg.get("output_path") or "verify_equivalence.csv"
    writer = ReportWriter(out, VERIFY_COLUMNS)

    if args.pair:
        try:
            source, target = args.pair.split(":")
        except ValueError:
            raise ConfigError("--pair must look like source:target, e.g. m-loo:m-amp")
        pairs = ((_cli_system(source), _cli_system(target)),)
    else:
        pairs = _DEFAULT_PAIRS[base_spec.model]
    if args.kappa_grid:
        grid = tuple(float(v) for v in args.kappa_grid.split(","))
    else:
        grid = _DEFAULT_KAPPA_GRID[base_spec.model]

    exit_code = EXIT_OK
    index = 0
    for source, target in pairs:
        if system_for(source).model != base_spec.model:
            raise ConfigError(f"pair {source}:{target} does not match model {base_spec.model}")
        for kappa in grid:
            spec = build_spec(cfg, quad_order=args.quad_order, kappa=kappa)
            eid = f"verify:{source}->{target}:{index:03d}"
            index += 1
            t0 = time.perf_counter()
            status = "ok"
            row = dict(experiment_id=eid, source_system=source, target_system=target,
                       **_spec_fields(spec), **_provenance(cfg, spec))
            try:
                report = verify_equivalence(source, target, spec, opts)
                mapped = dict(report.mapped_params)
                if args.perturb:
                    # test hook: corrupt the mapped point and re-evaluate
                    mapped = {k: v * (1.0 + args.perturb) for k, v in mapped.items()}
                    sdef = system_for(target)
                    vec = np.array([mapped[n] for n in sdef.params])
                    res = np.max(np.abs(sdef.residual(vec, spec)))
                else:
                    res = report.target_residual_norm
                passed = res <= report.tolerance
                source_sol = SeSolution(source, report.source_solution,
                                        report.source_residual_norm,
                                        report.source_iterations, tol=opts.tol)
                target_sol = SeSolution(target, mapped, float(res), 0,
                                        tol=report.tolerance)
                mse_source = mse_candidates(source_sol, spec)[1]
                mse_target = mse_candidates(target_sol, spec)[1]
                row.update(mapped, source_residual_norm=report.source_residual_norm,
                           target_residual_norm=float(res),
                           tolerance=report.tolerance, passed=passed,
                           mse_source=mse_source, mse_target=mse_target)
                if not passed:
                    exit_code = max(exit_code, EXIT_EQUIVALENCE)
                writer.add_plot(eid, "target_residual_norm", kappa, float(res))
            except (NonConvergence, NumericError) as exc:
                status = "solve_failed"
                row.update(passed=False)
                exit_code = max(exit_code, EXIT_NONCONVERGENCE)
                print(f"verify-equivalence: {source}->{target} at kappa={kappa}: {exc}",
                      file=sys.stderr)
            row.update(status=status, wall_time_ms=(time.perf_counter() - t0) * 1e3)
            writer.add(**row)
    writer.write(args.emit_plot_data)
    return exit_code


# ---------------------------------------------------------------------------
# simulate


def _simulate_one(spec: ProblemSpec, n: int, seed: int, replicate: int):
    if spec.model == "m_estimator":
        data = estimators.gen_linear_data(spec, n, seed, replicate)
        beta = estimators.fit_m_estimator(data)
        return estimators.empirical_mse(beta, data), None, None
    if spec.model == "lasso":
        data = estimators.gen_linear_data(spec, n, seed, replicate)
        beta = estimators.fit_lasso_cd(data, spec.lambda_star)
        return estimators.empirical_mse(beta, data), None, None
    data = estimators.gen_logistic_data(spec, n, seed, replicate)
    beta = estimators.fit_logistic_mle(data)
    inflation, noise_scale = estimators.logistic_overlap(beta, data)
    return estimators.empirical_mse(beta, data), inflation, noise_scale


def _se_prediction(spec: ProblemSpec, opts: SolverOptions) -> tuple[SeSolution, float]:
    """Solve the family's canonical SE system for the simulated estimator.

    For the logistic model the data are generated with variance-1/n designs,
    so the signal strength entering the system is sqrt(kappa) * r_star (the
    limit of ||X beta*|| scatter), and the solved sigma / alpha1 predict the
    empirical inflation and orthogonal noise scale.
    """
    if spec.model == "logistic":
        spec = ProblemSpec("logistic", kappa=spec.kappa,
                           r_star=float(np.sqrt(spec.kappa) * spec.r_star),
                           quad_order=spec.quad_order)
    return solve_system(CANONICAL[spec.model], spec, opts=opts), spec.r_star


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    spec = build_spec(cfg, quad_order=args.quad_order)
    opts = build_solver_options(cfg, args)
    n_grid = cfg.get("n_grid", [1000])
    seeds = cfg.get("seeds", 1)
    base_seed = args.seed if args.seed is not None else 0
    out = args.out or cfg.get("output_path") or "simulate.csv"
    writer = ReportWriter(out, SIMULATE_COLUMNS)

    sol, se_signal = _se_prediction(spec, opts)
    system = sol.system
    # only the logistic_loo root has the (sigma, alpha1) pair
    pred_inflation, pred_noise = sol.params.get("sigma"), sol.params.get("alpha1")
    # candidates use the actual prior moments; for the logistic model the
    # solved (sigma, alpha1) keep their inflation/noise roles either way
    pred_nominal, pred_reduction = mse_candidates(sol, spec)
    exit_code = EXIT_OK
    for idx, n in enumerate(n_grid):
        eid = f"simulate:{system}:{idx:03d}"
        mses, inflations, noises = [], [], []
        n_failed = 0
        for rep in range(seeds):
            try:
                mse, inflation, noise_scale = _simulate_one(spec, n, base_seed, rep)
                mses.append(mse)
                if inflation is not None:
                    inflations.append(inflation)
                    noises.append(noise_scale)
                writer.add_plot(eid, "replicate_mse", n, mse)
            except (HdseError, np.linalg.LinAlgError) as exc:
                n_failed += 1
                print(f"simulate: n={n} replicate={rep} failed: {exc}", file=sys.stderr)
        if n_failed:
            exit_code = EXIT_NONCONVERGENCE
        d = int(round(spec.kappa * n))
        mean = float(np.mean(mses)) if mses else None
        sd = float(np.std(mses, ddof=1)) if len(mses) > 1 else None
        writer.add(experiment_id=eid, system=system, model=spec.model, n=n, d=d,
                   seeds=seeds, n_failed=n_failed, **_spec_fields(spec),
                   se_signal_strength=se_signal,
                   predicted_mse_nominal=pred_nominal,
                   predicted_mse_reduction_checked=pred_reduction,
                   empirical_mse_mean=mean, empirical_mse_sd=sd,
                   predicted_inflation=pred_inflation,
                   empirical_inflation_mean=float(np.mean(inflations)) if inflations else None,
                   empirical_inflation_sd=float(np.std(inflations, ddof=1))
                   if len(inflations) > 1 else None,
                   predicted_noise_scale=pred_noise,
                   empirical_noise_scale_mean=float(np.mean(noises)) if noises else None,
                   design_variance=estimators.DESIGN_VARIANCE,
                   status="ok" if not n_failed else "replicate_failures",
                   **_provenance(cfg, spec))
        if mean is not None:
            writer.add_plot(eid, "empirical_mse_mean", n, mean)
            writer.add_plot(eid, "predicted_mse", n, pred_reduction)
    writer.write(args.emit_plot_data)
    return exit_code


# ---------------------------------------------------------------------------
# amp


def cmd_amp(args) -> int:
    cfg = load_config(args.config)
    spec = build_spec(cfg, quad_order=args.quad_order)
    if spec.model != "lasso":
        raise ConfigError("the amp command requires a lasso config")
    n = cfg.get("n_grid", [800])[0]
    seed = args.seed if args.seed is not None else 0
    out = args.out or cfg.get("output_path") or "amp.csv"
    writer = ReportWriter(out, AMP_COLUMNS)

    t0 = time.perf_counter()
    data = estimators.gen_linear_data(spec, n, seed)
    state, trajectory = estimators.amp_lasso(data, spec.lambda_star)
    eid = f"amp:lasso:{seed}"
    for it, gamma, est_tau in trajectory:
        writer.add(experiment_id=eid, row_type="trajectory", n=n, d=data.d,
                   lambda_star=spec.lambda_star, seed=seed, iter=it, gamma=gamma,
                   est_tau=est_tau, **_provenance(cfg, spec))
        writer.add_plot(eid, "gamma", it, gamma)
        writer.add_plot(eid, "est_tau", it, est_tau)

    exit_code = EXIT_OK
    gap = kkt_amp = kkt_cd = None
    if state.diverged:
        status, exit_code = "diverged", EXIT_NONCONVERGENCE
        print("amp: iteration diverged", file=sys.stderr)
    else:
        status = "converged" if state.converged else "max_iter"
        if not state.converged:
            exit_code = EXIT_NONCONVERGENCE
        beta_cd = estimators.fit_lasso_cd(data, spec.lambda_star)
        gap = float(np.max(np.abs(state.beta - beta_cd)))
        kkt_amp = estimators.kkt_residual_lasso(data, state.beta, spec.lambda_star)
        kkt_cd = estimators.kkt_residual_lasso(data, beta_cd, spec.lambda_star)
    wall = (time.perf_counter() - t0) * 1e3
    writer.add(experiment_id=eid, row_type="summary", n=n, d=data.d,
               lambda_star=spec.lambda_star, seed=seed, gap_max_norm=gap,
               kkt_amp=kkt_amp, kkt_cd=kkt_cd, amp_converged=state.converged,
               amp_diverged=state.diverged, amp_iterations=state.iter, status=status,
               wall_time_ms=wall, **_provenance(cfg, spec))
    writer.write(args.emit_plot_data)
    return exit_code


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdse",
        description="State-equation solving, equivalence verification, and "
                    "Monte-Carlo validation for high-dimensional regression.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_system=False):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", help="output CSV path (overrides config output_path)")
        p.add_argument("--seed", type=int, help="base seed for simulation commands")
        p.add_argument("--quad-order", type=int, dest="quad_order",
                       help="Gauss-Hermite order per axis")
        p.add_argument("--tol", type=float, help="solver residual tolerance")
        p.add_argument("--max-iter", type=int, dest="max_iter",
                       help="solver iteration budget")
        p.add_argument("--emit-plot-data", action="store_true",
                       help="also write tidy long-format plot data")
        if needs_system:
            p.add_argument("--system", required=True,
                           help="system id, e.g. m-loo, lasso-amp, logistic-cgmt")

    p = sub.add_parser("solve-se", help="solve one state-equation system")
    common(p, needs_system=True)
    p.set_defaults(func=cmd_solve_se)

    p = sub.add_parser("verify-equivalence", help="solve-map-substitute checks")
    common(p)
    p.add_argument("--pair", help="source:target systems, e.g. lasso-amp:lasso-cgmt")
    p.add_argument("--kappa-grid", dest="kappa_grid",
                   help="comma-separated kappa grid (defaults per model)")
    p.add_argument("--perturb", type=float, default=0.0,
                   help="test hook: corrupt mapped parameters by this relative amount")
    p.set_defaults(func=cmd_verify_equivalence)

    p = sub.add_parser("simulate", help="Monte-Carlo validation of SE predictions")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("amp", help="AMP vs coordinate descent on one instance")
    common(p)
    p.set_defaults(func=cmd_amp)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"hdse: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HdseError as exc:
        print(f"hdse: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
