"""Experiment runner: seeded problem generation, solver dispatch, trace
persistence, and automatic certificate bundles.

A run directory contains, per variant and repetition, the trace CSV, a JSON
sidecar with the full configuration and certified constants, and a
certificate bundle JSON; ``emit_plot_data`` condenses the traces into one
long-format series.csv (variant, k, f_gap, grad_norm) for plotting.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import analysis, envelopes, problems
from .boosted import BoostedConfig, choose_order, run_bhippa, run_bpga
from .core import (IterateTrace, UsageError, certify_descent,
                   certify_displacement, config_digest, min_grad_bound_check,
                   reevaluate_trace)
from .directions import DirectionRule, beta_for_holder
from .solvers import ArmijoParams, DealConfig, run_deala, run_dealc

HEURISTIC_BETAS = (0.5, 0.0, -0.2)


@dataclass
class ProblemSpec:
    kind: str = "leastp"
    m: int = 1000
    n: int = 200
    p: float = 1.5
    lam: float = 0.1
    s: float = 4.0
    seed: int = 0
    consistent: bool = True


@dataclass
class SolverSpec:
    name: str = "DEAL-C"
    solver: str = "deal-c"
    beta: object = "auto"           # "auto" or a real > -1
    direction: str = "gradient"
    c1: float = 1.0
    c2: float = 1.0
    sigma: Optional[float] = None   # per-solver default when None
    eta: float = 0.5
    alpha_bar: Optional[float] = None
    gamma: Optional[float] = None
    order: object = "auto"          # proximal-point order, "auto" matches the exponent
    max_linesearch: int = 50
    memory: int = 10


@dataclass
class RunSpec:
    eps: float = 1e-6
    max_iter: int = 10000
    x0_seed: int = 0
    repetitions: int = 1
    store_iterates: bool = True


@dataclass
class OutputSpec:
    directory: str = "runs/out"


@dataclass
class ExperimentConfig:
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    solvers: list = field(default_factory=lambda: [SolverSpec()])
    run: RunSpec = field(default_factory=RunSpec)
    output: OutputSpec = field(default_factory=OutputSpec)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        _check_config(doc)
        return cls(
            problem=ProblemSpec(**doc.get("problem", {})),
            solvers=[SolverSpec(**s) for s in doc.get("solvers", [{}])],
            run=RunSpec(**doc.get("run", {})),
            output=OutputSpec(**doc.get("output", {})),
        )


def validate_config(doc: dict) -> list:
    """Schema check for a config document; returns offending-key messages.
    Each solver, or its default, must be one the problem's family accepts."""
    errors = []
    if not isinstance(doc, dict):
        return ["config must be a JSON object"]
    known = {"problem": ProblemSpec, "run": RunSpec, "output": OutputSpec}
    for key in doc:
        if key not in known and key != "solvers":
            errors.append(f"unknown top-level key {key!r}")
    for key, klass in known.items():
        sub = doc.get(key, {})
        if not isinstance(sub, dict):
            errors.append(f"{key} must be an object")
            continue
        fields = {f.name for f in dataclasses.fields(klass)}
        errors.extend(f"{key}.{k} is not a recognized key" for k in sub if k not in fields)
    problem = doc.get("problem", {})
    kind = problem.get("kind", ProblemSpec.kind) if isinstance(problem, dict) else None
    family = problems.FAMILIES.get(kind) if isinstance(kind, str) else None
    if family is None and isinstance(problem, dict):
        errors.append(f"problem.kind {kind!r} is not supported")
    solvers = doc.get("solvers", [{}])
    if not isinstance(solvers, list):
        errors.append("solvers must be a list")
    else:
        fields = {f.name for f in dataclasses.fields(SolverSpec)}
        for i, sub in enumerate(solvers):
            if not isinstance(sub, dict):
                errors.append(f"solvers[{i}] must be an object")
                continue
            errors.extend(f"solvers[{i}].{k} is not a recognized key"
                          for k in sub if k not in fields)
            accepted = DEAL_SOLVERS if family is None else family.solvers
            if sub.get("solver", SolverSpec.solver) not in accepted:
                errors.append(f"solvers[{i}].solver must be one of {accepted} "
                              f"for problem.kind {kind!r}")
    return errors


def _check_config(doc: dict) -> None:
    errors = validate_config(doc)
    if errors:
        raise UsageError("invalid experiment config: " + "; ".join(errors))


def build_problem(spec: ProblemSpec):
    return problems.generate_problem(
        spec.seed, spec.kind, spec.m, spec.n, p=spec.p, lam=spec.lam, s=spec.s,
        consistent=spec.consistent)


@dataclass
class RunResult:
    name: str
    trace: IterateTrace
    certificates: dict
    ok: bool
    fstar: Optional[float] = None
    tau: Optional[float] = None     # the dominance constant the bundle used


def run_variant(problem, spec: SolverSpec, run: RunSpec, rep: int = 0) -> RunResult:
    """Run one solver variant on a built problem and certify its trace."""
    if spec.solver not in problem.solvers:
        raise UsageError(f"solver must be one of {problem.solvers} for the {problem.kind} "
                         f"family, got {spec.solver!r}")
    dim = problem.n
    rng = np.random.default_rng(run.x0_seed + rep)
    x0 = rng.uniform(-5.0, 5.0, size=dim)
    digest = config_digest({"solver": dataclasses.asdict(spec),
                            "run": dataclasses.asdict(run),
                            "problem": problem.descriptor(), "rep": rep})

    trace, ctx = _RUNNERS[spec.solver](problem, spec, run, x0)
    trace.seed, trace.config_digest = run.x0_seed + rep, digest
    ref = problems.reference_optimum(problem)
    if ref.converged:
        ctx.update(fstar=ref.fstar, xstar=ref.xstar, tau=ref.tau)
    certificates = certify_run(trace, ctx)
    return RunResult(name=spec.name, trace=trace, certificates=certificates,
                     ok=bundle_ok(certificates), fstar=ctx.get("fstar"),
                     tau=ctx.get("tau") if trace.guaranteed else None)


def _run_deal(problem, spec, run, x0):
    objective = problem.as_smooth()
    beta = beta_for_holder(objective.holder.nu) if spec.beta == "auto" else float(spec.beta)
    rule = DirectionRule(spec.direction, beta=beta, c1=spec.c1, c2=spec.c2,
                         memory=spec.memory)
    armijo = ArmijoParams(eta=spec.eta,
                          **_given(sigma=spec.sigma, alpha_bar=spec.alpha_bar))
    cfg = DealConfig(eps=run.eps, max_iter=run.max_iter, rule=rule, armijo=armijo,
                     store_iterates=run.store_iterates)
    runner = run_dealc if spec.solver == "deal-c" else run_deala
    return runner(objective, x0, cfg), {"evaluate": problem.value_grad, "rows": problem.value_grad_rows}


def _run_bpga(problem, spec, run, x0):
    composite = problem.as_composite()
    beta = 0.0 if spec.beta == "auto" else float(spec.beta)
    rule = DirectionRule(spec.direction, beta=beta, memory=spec.memory)
    cfg = BoostedConfig(gamma=spec.gamma, sigma=spec.sigma,
                        max_linesearch=spec.max_linesearch, rule=rule,
                        eps=run.eps, max_iter=run.max_iter,
                        store_iterates=run.store_iterates,
                        **_given(alpha_bar=spec.alpha_bar))
    trace = run_bpga(composite, x0, cfg)
    gamma = trace.extras["gamma"]
    return trace, {"evaluate": lambda x: envelopes.fbe_value_grad(composite, x, gamma),
                   "rows": lambda X: problem.fbe_rows(X, gamma)}


def _run_bhippa(problem, spec, run, x0):
    phi = problem.as_prox_capable()
    kl = problem.kl_info()
    order = choose_order(kl.vartheta) if spec.order == "auto" else float(spec.order)
    rule = DirectionRule(spec.direction, beta=0.0 if spec.beta == "auto" else float(spec.beta),
                         memory=spec.memory)
    cfg = BoostedConfig(gamma=spec.gamma, sigma=spec.sigma, eta=spec.eta, p=order,
                        max_linesearch=spec.max_linesearch, rule=rule,
                        eps=run.eps, max_iter=run.max_iter,
                        store_iterates=run.store_iterates)
    trace = run_bhippa(phi, x0, cfg)
    gamma = trace.extras["gamma"]
    return trace, {
        "evaluate": lambda x: envelopes.home_value_grad(phi, x, gamma, order),
        "rows": lambda X: envelopes.home_rows(phi, X, gamma, order),
        "prox_oracle": lambda x: envelopes.prox_oracle_check(phi, x, gamma, order),
    }


# each runner returns the trace, with the direction rule's fallback count in
# its extras, and its certificate context (evaluate, rows, ...)
_RUNNERS = {"deal-c": _run_deal, "deal-a": _run_deal, "bpga": _run_bpga,
            "bhippa": _run_bhippa}
DEAL_SOLVERS = tuple(_RUNNERS)


def _given(**fields) -> dict:
    """The fields that are set, so that unset ones keep the solver's default."""
    return {k: v for k, v in fields.items() if v is not None}


def certify_run(trace: IterateTrace, ctx: dict) -> dict:
    """Certificate bundle for one finished run.

    Re-evaluates the stored iterates, if any, through the run's own oracles:
    in blocks through the batch oracle ``ctx["rows"](X) -> (values,
    gradients)`` that every runner supplies, else (the tests' reference)
    through ``ctx["evaluate"](x) -> (value, gradient)``.  It then cross-checks
    the run's prox at the final iterate against the grid oracle when the run
    supplies that check (``prox_oracle``).  Applies every
    certificate whose constants are available: the solver's own (rho, theta,
    eps and the displacement constant c) from the trace, and the reference
    optimum (fstar, xstar) and dominance constant tau from ``ctx``.
    Heuristic runs get rate fits but no guarantee checks, and tau is not
    used for them.  A run that stopped before its first record gets its
    termination and diagnostic and no checks; one that stopped before its
    first step gets no displacement check.
    """
    bundle = {"guaranteed": trace.guaranteed, "solver": trace.solver_id,
              "termination": trace.extras.get("termination", "unknown")}
    if not trace.records:
        bundle["diagnostic"] = trace.extras.get("diagnostic")
        return bundle
    checked = trace
    if all(rec.x is not None for rec in trace.records):
        evaluate = ctx["evaluate"]
        # rows goes positionally: wrappers of reevaluate_trace bind
        # (trace, value, grad) and pass the rest through
        checked = reevaluate_trace(trace, lambda x: tuple(evaluate(x))[0],
                                   lambda x: tuple(evaluate(x))[1], ctx.get("rows"))
        bundle["reevaluated"] = True
        if "prox_oracle" in ctx:
            bundle["prox_oracle"] = ctx["prox_oracle"](trace.records[-1].x)
    c = trace.extras.get("c")
    if trace.guaranteed:
        bundle["descent"] = certify_descent(checked, trace.rho, trace.theta).as_dict()
        if c is not None and len(checked) > 1:
            bundle["displacement"] = certify_displacement(
                checked, c, trace.theta).as_dict()
    fstar = ctx.get("fstar")
    if fstar is not None and trace.guaranteed:
        bundle["min_grad_bound"] = min_grad_bound_check(
            checked, trace.rho, trace.theta, fstar).as_dict()
    if fstar is not None:
        tau = ctx.get("tau") if trace.guaranteed else None
        rate = analysis.fit_linear_rate(
            checked, fstar, rho=trace.rho if tau else None,
            theta=trace.theta if tau else None, tau=tau)
        bundle["rate"] = rate.as_dict()
        if tau is not None:
            comp = analysis.verify_complexity(
                checked, fstar, trace.rho, trace.theta, tau, trace.extras["eps"],
                xstar=ctx.get("xstar"), c=c)
            bundle["complexity"] = comp.as_dict()
            if rate.q_theory is not None:
                bundle["per_step_ratio"] = analysis.per_step_ratio_check(
                    checked, fstar, rate.q_theory).as_dict()
    return bundle


def bundle_ok(bundle: dict) -> bool:
    """The verdict of a certificate bundle: no check in it failed.

    A check that reached no verdict (``passed`` None) neither passes nor
    fails the bundle.
    """
    return all(rep.get("passed") is None or rep["passed"]
               for rep in bundle.values() if isinstance(rep, dict))


def run_experiment(config: ExperimentConfig) -> Path:
    """Execute every (variant, repetition), persist traces and certificates.

    Deterministic for fixed seeds.  Returns the run directory; the summary
    records whether any guaranteed certificate failed.
    """
    _check_config(config.as_dict())
    out = Path(config.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    problem = build_problem(config.problem)
    (out / "problem.json").write_text(json.dumps(problem.descriptor(), indent=2,
                                                 default=_json_default))
    (out / "config.json").write_text(json.dumps(config.as_dict(), indent=2))
    summary = {"variants": [], "ok": True, "terminations": Counter()}
    series = {}
    for spec in config.solvers:
        for rep in range(config.run.repetitions):
            result = run_variant(problem, spec, config.run, rep)
            stem = spec.name if config.run.repetitions == 1 else f"{spec.name}_rep{rep}"
            result.trace.to_csv(out / f"{stem}.csv")
            sidecar = {
                "variant": spec.name, "rep": rep,
                "solver_id": result.trace.solver_id,
                "seed": result.trace.seed,
                "config_digest": result.trace.config_digest,
                "rho": result.trace.rho, "theta": result.trace.theta,
                "guaranteed": result.trace.guaranteed,
                "fstar": result.fstar, "tau": result.tau,
                "extras": {k: v for k, v in result.trace.extras.items()},
                "problem": problem.descriptor(),
            }
            (out / f"{stem}.json").write_text(
                json.dumps(sidecar, indent=2, default=_json_default))
            (out / f"{stem}.certificates.json").write_text(
                json.dumps(result.certificates, indent=2, default=_json_default))
            records = result.trace.records
            iterations = max(len(records) - 1, 0)
            iters_to_tol = (iterations
                            if result.trace.extras.get("termination") == "tolerance"
                            else None)
            summary["variants"].append({
                "variant": spec.name, "rep": rep, "ok": result.ok,
                "iterations": iterations,
                "iterations_to_tolerance": iters_to_tol,
                "termination": result.trace.extras.get("termination"),
                "final_grad_norm": records[-1].grad_norm if records else None,
            })
            summary["ok"] = summary["ok"] and result.ok
            summary["terminations"][result.trace.extras.get("termination")] += 1
            series[stem] = _series(spec.name, result.fstar, result.trace)
    (out / "summary.json").write_text(json.dumps(summary, indent=2,
                                                 default=_json_default))
    emit_plot_data(out, series)
    return out


def emit_plot_data(run_dir, series=None) -> Path:
    """Condense a run directory into series.csv: variant,k,f_gap,grad_norm.

    ``series`` maps each trace's stem to its ``_series`` columns, as
    ``run_experiment`` keeps them in memory.  Without it, the traces are read
    back: those the directory's ``summary.json`` lists, so CSVs left by an
    earlier run into the same directory are not mixed in.  Either way the
    traces go in file-name order.
    """
    run_dir = Path(run_dir)
    if series is None:
        summary = run_dir / "summary.json"
        if not summary.exists():
            raise UsageError(f"no summary.json found in {run_dir}")
        variants = json.loads(summary.read_text())["variants"]
        repeated = {v["variant"] for v in variants if v["rep"] > 0}
        series = {}
        for stem in {f"{v['variant']}_rep{v['rep']}" if v["variant"] in repeated
                     else v["variant"] for v in variants}:
            meta = json.loads((run_dir / f"{stem}.json").read_text())
            series[stem] = _series(meta["variant"], meta["fstar"],
                                   IterateTrace.from_csv(run_dir / f"{stem}.csv"))
    target = run_dir / "series.csv"
    with open(target, "w") as fh:
        fh.write("variant,k,f_gap,grad_norm\n")
        for stem in sorted(series, key=lambda stem: stem + ".csv"):
            variant, fstar, k, f, grad_norm = series[stem]
            gap = f - (fstar if fstar is not None else float(f.min()))
            # a row whose bits repeat the previous row's (a replayed fixed
            # point) reuses its formatting
            bits = np.stack([gap, grad_norm]).view(np.int64)
            fresh = np.ones(len(k), dtype=bool)
            fresh[1:] = (bits[:, 1:] != bits[:, :-1]).any(axis=0)
            tails = [f"{a!r},{b!r}\n" for a, b in zip(gap[fresh].tolist(),
                                                       grad_norm[fresh].tolist())]
            fh.writelines(f"{variant},{i},{tails[j]}" for i, j in zip(
                k.tolist(), (np.cumsum(fresh) - 1).tolist()))
    return target


def _series(variant, fstar, trace: IterateTrace):
    """The columns series.csv needs of one trace: (variant, fstar, k, f,
    grad_norm), the last three as arrays, so no record or iterate is kept."""
    k = np.array([rec.k for rec in trace.records], dtype=np.int64)
    return variant, fstar, k, trace.f_values(), trace.grad_norms()


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


def preset(name: str, seed: int = 0, out_dir: str = "runs") -> ExperimentConfig:
    """Named experiment presets mirroring the benchmark studies.

    sec51/sec52: the least-p study (1000 samples, 200 features) with the
    constant-step and backtracking families and their heuristic rescalings;
    they differ only in the Armijo acceptance constant (1e-4 vs 0.5).
    sec53: the l1 regression study (1000 samples, 10 features) with the five
    boosted proximal-gradient variants.
    """
    name = name.lower()
    if name in ("sec51", "sec52"):
        sigma = 1e-4 if name == "sec51" else 0.5
        solvers = []
        for fam, solver in (("DEAL-C", "deal-c"), ("DEAL-A", "deal-a")):
            solvers.append(SolverSpec(name=fam, solver=solver, beta="auto",
                                      sigma=sigma))
            for i, b in enumerate(HEURISTIC_BETAS, start=1):
                solvers.append(SolverSpec(name=f"{fam}{i}", solver=solver,
                                          beta=b, sigma=sigma))
        return ExperimentConfig(
            problem=ProblemSpec(kind="leastp", m=1000, n=200, p=1.5, seed=seed,
                                consistent=True),
            solvers=solvers,
            run=RunSpec(x0_seed=seed),
            output=OutputSpec(directory=str(Path(out_dir) / name)),
        )
    if name == "sec53":
        solvers = [
            SolverSpec(name="BPGA", solver="bpga", direction="gradient", beta=0.0),
            SolverSpec(name="BPGA-1", solver="bpga", direction="gradient", beta=0.5),
            SolverSpec(name="BPGA-BB1", solver="bpga", direction="bb1"),
            SolverSpec(name="BPGA-BB2", solver="bpga", direction="bb2"),
            SolverSpec(name="BPGA-LBFGS", solver="bpga", direction="lbfgs"),
        ]
        return ExperimentConfig(
            problem=ProblemSpec(kind="lasso", m=1000, n=10, lam=0.1, seed=seed,
                                consistent=False),
            solvers=solvers,
            run=RunSpec(x0_seed=seed),
            output=OutputSpec(directory=str(Path(out_dir) / name)),
        )
    raise UsageError(f"unknown preset {name!r}; expected sec51, sec52, or sec53")
