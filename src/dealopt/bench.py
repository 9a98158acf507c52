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
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal, Optional, Union

import numpy as np

from . import analysis, envelopes, problems
from .boosted import (BoostedConfig, bhippa_constants, bpga_constants, choose_order,
                      run_bhippa, run_bpga)
# reevaluate_trace is not called here since runs re-evaluate while they
# proceed; it stays in this namespace, where perfbench's tracer wraps it
from .core import (IterateTrace, Reevaluation, UsageError, certify_descent,
                   certify_displacement, config_digest, min_grad_bound_check,
                   reevaluate_trace, write_rows)  # noqa: F401
from .directions import DirectionRule, beta_for_holder
from .solvers import ArmijoParams, DealConfig, is_guaranteed, run_deala, run_dealc

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
    beta: Union[float, Literal['auto']] = "auto"    # or a real > -1
    direction: str = "gradient"
    c1: float = 1.0
    c2: float = 1.0
    sigma: Optional[float] = None   # per-solver default when None
    eta: float = 0.5
    alpha_bar: Optional[float] = None
    gamma: Optional[float] = None
    # proximal-point order, "auto" matches the exponent
    order: Union[float, Literal['auto']] = "auto"
    max_linesearch: int = 50
    memory: int = 10


@dataclass
class RunSpec:
    eps: float = 1e-6
    max_iter: int = 10000
    x0_seed: int = 0
    repetitions: int = 1
    # re-evaluate every iterate while the run proceeds; the name, from the
    # stored iterates this once took, is kept so that config.json is unchanged
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
    Each value must have its field's annotated type (a bool is not a
    number) and, if a float, be finite; there must be at least one
    repetition, and each solver, or its default, must be one the problem's
    family accepts."""
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
        errors.extend(_field_errors(key, klass, sub))
    run = doc.get("run", {})
    repetitions = run.get("repetitions", 1) if isinstance(run, dict) else 1
    if _number(repetitions) and repetitions < 1:
        errors.append(f"run.repetitions must be at least 1, got {repetitions}")
    problem = doc.get("problem", {})
    kind = problem.get("kind", ProblemSpec.kind) if isinstance(problem, dict) else None
    family = problems.FAMILIES.get(kind) if isinstance(kind, str) else None
    if family is None and isinstance(problem, dict):
        errors.append(f"problem.kind {kind!r} is not supported")
    solvers = doc.get("solvers", [{}])
    if not isinstance(solvers, list):
        errors.append("solvers must be a list")
    else:
        for i, sub in enumerate(solvers):
            if not isinstance(sub, dict):
                errors.append(f"solvers[{i}] must be an object")
                continue
            errors.extend(_field_errors(f"solvers[{i}]", SolverSpec, sub))
            accepted = DEAL_SOLVERS if family is None else family.solvers
            if sub.get("solver", SolverSpec.solver) not in accepted:
                errors.append(f"solvers[{i}].solver must be one of {accepted} "
                              f"for problem.kind {kind!r}")
    return errors


def _number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# per field annotation, as the string that annotations are kept as: the test
# a config value must pass and what it asks for.  As in JSON, a bool is not a
# number.
_FIELD_TYPES = {
    "float": (_number, "a number"),
    "int": (lambda v: _number(v) and isinstance(v, numbers.Integral), "an integer"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "Optional[float]": (lambda v: v is None or _number(v), "a number or null"),
    "Union[float, Literal['auto']]": (lambda v: _number(v) or isinstance(v, str) and v == "auto",
                                      "a number or 'auto'"),
}


def _field_errors(key: str, klass, sub: dict) -> list:
    """Messages for the keys of ``sub`` that ``klass`` lacks and for the
    values that fail their field's test in ``_FIELD_TYPES``.  No field takes
    a NaN or an infinity."""
    types = {f.name: _FIELD_TYPES[f.type] for f in dataclasses.fields(klass)}
    errors = []
    for k, value in sub.items():
        if k not in types:
            errors.append(f"{key}.{k} is not a recognized key")
        elif not types[k][0](value):
            errors.append(f"{key}.{k} must be {types[k][1]}, got {value!r}")
        elif isinstance(value, float) and not math.isfinite(value):
            errors.append(f"{key}.{k} must be finite, got {value!r}")
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
    """Run one solver variant on a built problem and certify its trace.

    With ``run.store_iterates`` each iterate is re-evaluated while the run
    proceeds, by a ``Reevaluation`` in the certificate context that the
    solver's ``observe`` hook feeds, through the run's batch oracle
    ``ctx["rows"]``: the reference optimum is taken first, so that the
    distance of each iterate to it is known where a certificate reads it,
    and no iterate outlives its re-evaluation block.  Without it the run is
    certified from the values its solver logged.
    """
    solve, ctx = _configure_variant(problem, spec, run)
    rng = np.random.default_rng(run.x0_seed + rep)
    x0 = rng.uniform(-5.0, 5.0, size=problem.n)
    digest = config_digest({"solver": dataclasses.asdict(spec),
                            "run": dataclasses.asdict(run),
                            "problem": problem.descriptor(), "rep": rep})

    ref = problems.reference_optimum(problem)
    if ref.converged:
        ctx.update(fstar=ref.fstar, tau=ref.tau)
        # the distances to xstar feed the iterate criterion alone, which
        # certify_run checks on a guaranteed run with a tau (a boosted run
        # is guaranteed, but no composite reference carries a tau)
        if ref.tau is not None and ctx.get("guaranteed", True):
            ctx["xstar"] = ref.xstar
    observe = None
    if run.store_iterates:
        reevaluation = ctx["reevaluation"] = Reevaluation(
            ctx["evaluate"], ctx.get("rows"), ctx.get("xstar"))
        observe = reevaluation.add
    trace = solve(x0, observe)
    trace.seed, trace.config_digest = run.x0_seed + rep, digest
    certificates = certify_run(trace, ctx)
    return RunResult(name=spec.name, trace=trace, certificates=certificates,
                     ok=bundle_ok(certificates), fstar=ctx.get("fstar"),
                     tau=ctx.get("tau") if trace.guaranteed else None)


def _configure_variant(problem, spec: SolverSpec, run: RunSpec):
    """One variant's solver, configured on a built problem, and its
    certificate context: ``(solve, ctx)``, where ``solve(x0, observe)``
    runs it, handing each recorded iterate to ``observe`` unless that is
    None, and ``ctx`` holds the run's oracles (``evaluate``, ``rows``...)
    and, for a DEAL run, whether it is ``guaranteed``.

    Every range check of the variant's values runs here, where its direction
    rule, solver configuration and constants are built, so
    ``run_experiment`` configures each variant before it writes anything.
    """
    if spec.solver not in problem.solvers:
        raise UsageError(f"solver must be one of {problem.solvers} for the {problem.kind} "
                         f"family, got {spec.solver!r}")
    return _RUNNERS[spec.solver](problem, spec, run)


def _run_deal(problem, spec, run):
    objective = problem.as_smooth()
    beta = beta_for_holder(objective.holder.nu) if spec.beta == "auto" else float(spec.beta)
    rule = DirectionRule(spec.direction, beta=beta, c1=spec.c1, c2=spec.c2,
                         memory=spec.memory)
    armijo = ArmijoParams(eta=spec.eta,
                          **_given(sigma=spec.sigma, alpha_bar=spec.alpha_bar))
    cfg = DealConfig(eps=run.eps, max_iter=run.max_iter, rule=rule, armijo=armijo)
    runner = run_dealc if spec.solver == "deal-c" else run_deala
    return (lambda x0, observe: runner(objective, x0, cfg, observe),
            {"evaluate": problem.value_grad, "rows": problem.value_grad_rows,
             "guaranteed": is_guaranteed(rule, objective.holder.nu)})


def _run_bpga(problem, spec, run):
    composite = problem.as_composite()
    beta = 0.0 if spec.beta == "auto" else float(spec.beta)
    rule = DirectionRule(spec.direction, beta=beta, memory=spec.memory)
    cfg = BoostedConfig(gamma=spec.gamma, sigma=spec.sigma,
                        max_linesearch=spec.max_linesearch, rule=rule,
                        eps=run.eps, max_iter=run.max_iter,
                        **_given(alpha_bar=spec.alpha_bar))
    gamma = bpga_constants(composite, cfg)[0]
    return (lambda x0, observe: run_bpga(composite, x0, cfg, observe), {
        "evaluate": lambda x: envelopes.fbe_value_grad(composite, x, gamma),
        "rows": lambda X: problem.fbe_rows(X, gamma)})


def _run_bhippa(problem, spec, run):
    phi = problem.as_prox_capable()
    kl = problem.kl_info()
    order = choose_order(kl.vartheta) if spec.order == "auto" else float(spec.order)
    rule = DirectionRule(spec.direction, beta=0.0 if spec.beta == "auto" else float(spec.beta),
                         memory=spec.memory)
    cfg = BoostedConfig(gamma=spec.gamma, sigma=spec.sigma, eta=spec.eta, p=order,
                        max_linesearch=spec.max_linesearch, rule=rule,
                        eps=run.eps, max_iter=run.max_iter)
    gamma = bhippa_constants(cfg)[0]
    return (lambda x0, observe: run_bhippa(phi, x0, cfg, observe), {
        "evaluate": lambda x: envelopes.home_value_grad(phi, x, gamma, order),
        "rows": lambda X: envelopes.home_rows(phi, X, gamma, order),
        "prox_oracle": lambda x: envelopes.prox_oracle_check(phi, x, gamma, order),
    })


# each runner configures a variant and returns its solve(x0, observe), which
# gives the trace, with the direction rule's fallback count in its extras,
# and its certificate context (evaluate, rows, ...)
_RUNNERS = {"deal-c": _run_deal, "deal-a": _run_deal, "bpga": _run_bpga,
            "bhippa": _run_bhippa}
DEAL_SOLVERS = tuple(_RUNNERS)


def _given(**fields) -> dict:
    """The fields that are set, so that unset ones keep the solver's default."""
    return {k: v for k, v in fields.items() if v is not None}


def certify_run(trace: IterateTrace, ctx: dict) -> dict:
    """Certificate bundle for one finished run.

    Takes the run's re-evaluated records from ``ctx["reevaluation"]``, the
    ``core.Reevaluation`` that took its iterates while it proceeded, and
    their distances to the reference optimum, if it measured them, for the
    iterate criterion; without one, nothing is re-evaluated and the checks
    read the values the solver logged.  It then cross-checks the run's prox at the final
    iterate against the grid oracle when the run supplies that check
    (``prox_oracle``).  Applies every
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
    if not len(trace):
        bundle["diagnostic"] = trace.extras.get("diagnostic")
        return bundle
    reevaluation = ctx.get("reevaluation")
    checked, distances = trace, None
    if reevaluation is not None:
        checked, distances = reevaluation.result(trace)
        bundle["reevaluated"] = True
        if "prox_oracle" in ctx:
            bundle["prox_oracle"] = ctx["prox_oracle"](reevaluation.last)
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
                distances=distances, c=c)
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
    records whether any guaranteed certificate failed.  The config's types,
    the problem and every variant's ranges are checked before the run
    directory is created, so a config that fails a check leaves nothing.
    """
    _check_config(config.as_dict())
    problem = build_problem(config.problem)
    for spec in config.solvers:
        _configure_variant(problem, spec, config.run)
    out = Path(config.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    (out / "problem.json").write_text(json.dumps(problem.descriptor(), indent=2,
                                                 default=_json_default))
    (out / "config.json").write_text(json.dumps(config.as_dict(), indent=2))
    summary = {"variants": [], "ok": True, "terminations": Counter()}
    series = {}
    for spec in config.solvers:
        for rep in range(config.run.repetitions):
            stem = spec.name if config.run.repetitions == 1 else f"{spec.name}_rep{rep}"
            # the finished run is bound only inside _persist_variant, so its
            # trace is released before the next variant runs
            series[stem] = _persist_variant(
                out, stem, problem, rep, run_variant(problem, spec, config.run, rep),
                summary)
    (out / "summary.json").write_text(json.dumps(summary, indent=2,
                                                 default=_json_default))
    emit_plot_data(out, series)
    return out


def _persist_variant(out: Path, stem: str, problem, rep: int, result: RunResult,
                     summary: dict):
    """Write one finished run's trace CSV, sidecar and certificates, add its
    row to ``summary``, and return its ``_series`` columns."""
    trace = result.trace
    trace.to_csv(out / f"{stem}.csv")
    sidecar = {
        "variant": result.name, "rep": rep,
        "solver_id": trace.solver_id,
        "seed": trace.seed,
        "config_digest": trace.config_digest,
        "rho": trace.rho, "theta": trace.theta,
        "guaranteed": trace.guaranteed,
        "fstar": result.fstar, "tau": result.tau,
        "extras": dict(trace.extras),
        "problem": problem.descriptor(),
    }
    (out / f"{stem}.json").write_text(
        json.dumps(sidecar, indent=2, default=_json_default))
    (out / f"{stem}.certificates.json").write_text(
        json.dumps(result.certificates, indent=2, default=_json_default))
    iterations = max(len(trace) - 1, 0)
    termination = trace.extras.get("termination")
    summary["variants"].append({
        "variant": result.name, "rep": rep, "ok": result.ok,
        "iterations": iterations,
        "iterations_to_tolerance": iterations if termination == "tolerance" else None,
        "termination": termination,
        "final_grad_norm": trace.grad_norm[-1] if len(trace) else None,
    })
    summary["ok"] = summary["ok"] and result.ok
    summary["terminations"][termination] += 1
    return _series(result.name, result.fstar, trace)


def emit_plot_data(run_dir, series=None) -> Path:
    """Condense a run directory into series.csv: variant,k,f_gap,grad_norm.

    ``series`` maps each trace's stem to its ``_series`` columns, as
    ``run_experiment`` keeps them in memory.  Without it, the traces are read
    back: those the directory's ``summary.json`` lists, so CSVs left by an
    earlier run into the same directory are not mixed in.  Either way the
    traces go in file-name order, each written by ``core.write_rows``
    ``core.WRITE_CHUNK`` rows at a time, so no list of a variant's rows is
    built.
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
            f = np.asarray(f)
            gap = f - (fstar if fstar is not None else float(f.min()))
            write_rows(fh, f"{variant},", k, [gap, grad_norm], lambda a, b: f"{a!r},{b!r}\n")
    return target


def _series(variant, fstar, trace: IterateTrace):
    """The columns series.csv needs of one trace: (variant, fstar, k, f,
    grad_norm), the last three the trace's own columns, so no record or
    iterate is kept, nor a copy."""
    return variant, fstar, trace.k, trace.f, trace.grad_norm


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
