"""Spans around the public calls into each hdse module, for the traced run.

``Tracer.install`` replaces each traced function at the name its caller looks
it up by (a module attribute, a method, or an entry of ``systems.SYSTEMS``)
with a wrapper that records a span: name, layer, parent span, op id, start,
end and whether it raised.  ``uninstall`` puts the originals back, so no
wrapper exists outside the traced pass.  Spans stay in memory and are turned
into per-layer metrics by ``layer_metrics`` at the end of the run.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import functools
import time

import numpy as np

from hdse import cli, estimators, losses, solving, systems, transforms

CLI_COMMANDS = {"cmd_solve_se": "solve-se", "cmd_verify_equivalence": "verify-equivalence",
                "cmd_simulate": "simulate", "cmd_amp": "amp"}


class Span:
    __slots__ = ("name", "layer", "parent", "op", "t0", "t1", "raised", "count", "label",
                 "in_solve")

    def __init__(self, name, layer, parent, op, in_solve):
        self.name, self.layer, self.parent, self.op = name, layer, parent, op
        self.in_solve = in_solve
        self.raised = False
        self.count = 0
        self.label = None
        self.t0 = self.t1 = 0.0


def _model_label(spec) -> str:
    return spec.model if spec.model != "m_estimator" else spec.loss.kind


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op_id = None
        self.active = False
        self._stack: list[int] = []
        self._solve_depth = 0
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrapper(self, original, name, layer, before=None, after=None):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            stack = tracer._stack
            span = Span(name, layer, stack[-1] if stack else None, tracer.op_id,
                        tracer._solve_depth > 0)
            if before is not None:
                args = before(span, args)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            if name == "solving.solve_system":
                tracer._solve_depth += 1
            span.t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.t1 = time.perf_counter()
                span.raised = True
                if after is not None:
                    after(span, None, exc)
                raise
            else:
                span.t1 = time.perf_counter()
                if after is not None:
                    after(span, result, None)
                return result
            finally:
                stack.pop()
                if name == "solving.solve_system":
                    tracer._solve_depth -= 1

        return wrapper

    def _patch(self, owner, attr, name, layer, before=None, after=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(original, name, layer, before, after))

    def install(self):
        w = self._patch
        for attr in ("prox", "prox_deriv", "moreau_bundle"):
            w(losses, attr, f"losses.{attr}", "losses", before=_count_points)
        for owner in (systems, solving, transforms):
            w(owner, "expect_noise_sum", "expectations.expect_noise_sum", "expectations",
              before=_count_integrand)
        w(systems, "expect_noise_zweighted", "expectations.expect_noise_zweighted",
          "expectations", before=_count_integrand)
        for attr in ("bivariate_nodes", "zv_nodes"):
            w(systems, attr, f"expectations.{attr}", "expectations", after=_count_tensor)
        w(systems, "soft_threshold_moments", "expectations.soft_threshold_moments",
          "expectations")
        original_systems = dict(systems.SYSTEMS)
        self._patches.append((systems.SYSTEMS, None, original_systems))
        for sname, sdef in original_systems.items():
            residual = self._wrapper(sdef.residual, f"systems.residual.{sname}", "systems")
            systems.SYSTEMS[sname] = dataclasses.replace(sdef, residual=residual)
        for owner in (solving, cli):
            w(owner, "solve_system", "solving.solve_system", "solving")
        w(solving, "newton_solve", "solving.newton_solve", "solving", after=_count_iterations)
        w(solving, "evaluate_jacobian_fd", "solving.evaluate_jacobian_fd", "solving")
        w(solving, "auto_init", "solving.auto_init", "solving")
        for owner in (transforms, cli):
            w(owner, "verify_equivalence", "transforms.verify_equivalence", "transforms")
        w(transforms, "map_parameters", "transforms.map_parameters", "transforms")
        for attr in ("gen_linear_data", "gen_logistic_data"):
            w(estimators, attr, "estimators.gen", "estimators", before=_label_spec)
        for attr in ("fit_m_estimator", "fit_lasso_cd", "fit_logistic_mle"):
            w(estimators, attr, "estimators.fit", "estimators", before=_label_data)
        w(cli, "load_config", "cli.load_config", "cli")
        w(cli.ReportWriter, "write", "cli.write", "cli")
        for attr, sub in CLI_COMMANDS.items():
            w(cli, attr, f"cli.command.{sub}", "cli")
        self.active = True

    def uninstall(self):
        self.active = False
        for owner, attr, original in reversed(self._patches):
            if attr is None:
                owner.clear()
                owner.update(original)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- metrics -----------------------------------------------------------

    def op_counts(self) -> dict[str, dict]:
        """Solver work per op: solves, Newton iterations and residual evaluations."""
        per_op = {}
        for s in self.spans:
            counts = per_op.setdefault(s.op, {"solves": 0, "newton_iters": 0,
                                               "residual_evals": 0})
            if s.name == "solving.solve_system":
                counts["solves"] += 1
            elif s.name == "solving.newton_solve":
                counts["newton_iters"] += s.count
            elif s.layer == "systems" and s.in_solve:
                counts["residual_evals"] += 1
        return per_op

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        child_time = [0.0] * len(spans)
        first_newton = {}
        for i, s in enumerate(spans):
            if s.parent is not None:
                child_time[s.parent] += s.t1 - s.t0
                if s.name == "solving.newton_solve":
                    first_newton.setdefault(s.parent, i)
        m = {}

        def add(key, value):
            m[key] = m.get(key, 0) + value

        for i, s in enumerate(spans):
            dur = s.t1 - s.t0
            self_ms = (dur - child_time[i]) * 1e3
            outer = s.parent is None or spans[s.parent].layer != s.layer
            if s.layer in ("losses", "expectations"):
                add(f"{s.layer}.self_ms", self_ms)
                if outer:
                    add(f"{s.layer}.calls", 1)
                    add(f"{s.layer}.points" if s.layer == "losses" else "expectations.nodes",
                        s.count)
            elif s.layer == "systems":
                add(f"{s.name}.calls", 1)
                add(f"{s.name}.total_ms", dur * 1e3)
                if s.in_solve:
                    add("solving.residual_evals", 1)
            elif s.name == "solving.solve_system":
                add("solving.solves", 1)
                if s.raised:
                    add("solving.failed", 1)
                else:
                    newton = first_newton.get(i)
                    if newton is not None and spans[newton].raised:
                        add("solving.fallback_solves", 1)
            elif s.name == "solving.newton_solve":
                add("solving.newton_iters", s.count)
            elif s.name == "solving.evaluate_jacobian_fd":
                add("solving.jacobian.calls", 1)
                add("solving.jacobian.self_ms", self_ms)
            elif s.name == "solving.auto_init":
                add("solving.auto_init.self_ms", self_ms)
            elif s.name == "transforms.verify_equivalence":
                add("transforms.verify.self_ms", self_ms)
            elif s.name == "transforms.map_parameters":
                add("transforms.map.self_ms", self_ms)
            elif s.layer == "estimators":
                add(f"{s.name}.{s.label}.n", 1)
                add(f"{s.name}.{s.label}.total_ms", dur * 1e3)
                if s.name == "estimators.fit" and s.raised:
                    add("estimators.fit.failed", 1)
            elif s.layer == "cli":
                add(f"{s.name}.n", 1)
                add(f"{s.name}.total_ms", dur * 1e3)
        return m


def _count_points(span, args):
    span.count = int(np.size(args[1]))
    return args


def _count_integrand(span, args):
    g = args[0]

    def counted(x, *rest):
        span.count += int(np.size(x))
        return g(x, *rest)

    return (counted, *args[1:])


def _count_tensor(span, result, error):
    if error is None:
        span.count = int(np.size(result[0]))


def _count_iterations(span, result, error):
    if error is None:
        span.count = int(result[1]["iterations"])
    elif getattr(error, "iterations", None) is not None:
        span.count = int(error.iterations)


def _label_spec(span, args):
    span.label = _model_label(args[0])
    return args


def _label_data(span, args):
    span.label = _model_label(args[0].spec)
    return args
