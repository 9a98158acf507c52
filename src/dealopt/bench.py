"""Experiment runner: seeded problem generation, solver dispatch, trace
persistence, and automatic certificate bundles.

A run directory contains, per variant and repetition, the trace CSV, a JSON
sidecar with the full configuration and certified constants, and a
certificate bundle JSON; ``emit_plot_data`` condenses the traces into one
long-format series.csv (variant, k, f_gap, grad_norm) for plotting.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import os
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal, Optional, Union

import numpy as np

from . import analysis, envelopes, problems
from .boosted import BoostedConfig, bhippa_constants, bpga_constants, run_bhippa, run_bpga
# reevaluate_trace is not called here since runs re-evaluate while they
# proceed; it stays in this namespace, where perfbench's tracer wraps it
from .core import (IterateTrace, Reevaluation, UsageError, certify_descent,
                   certify_displacement, check_count, config_digest, is_integer,
                   min_grad_bound_check, reevaluate_trace, write_rows)  # noqa: F401
from .directions import DirectionRule, beta_for_holder
from .solvers import ArmijoParams, DealConfig, deal_trace, run_deala, run_dealc

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
    repetition and one solver, and each solver, or its default, must be one
    the problem's family accepts and be named by a plain file name that
    gives no file of the run directory or of another variant, nor one
    longer than the file system of ``output.directory`` allows.  An
    existing ``output.directory`` must be empty or a previous run
    directory, which the run replaces, and hold no working directory."""
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
    problem = doc.get("problem", {})
    kind = problem.get("kind", ProblemSpec.kind) if isinstance(problem, dict) else None
    family = problems.FAMILIES.get(kind) if isinstance(kind, str) else None
    if family is None and isinstance(problem, dict):
        errors.append(f"problem.kind {kind!r} is not supported")
    output = doc.get("output", {})
    directory = (output.get("directory", OutputSpec.directory)
                 if isinstance(output, dict) else None)
    refusal = _output_error(directory) if isinstance(directory, str) else None
    if refusal:
        errors.append(f"output.directory {directory!r} {refusal}")
    solvers = doc.get("solvers", [{}])
    if not isinstance(solvers, list):
        errors.append("solvers must be a list")
    elif not solvers:
        errors.append("solvers must list at least one solver")
    else:
        repeated = is_integer(repetitions) and repetitions > 1
        taken = {"problem.json", "config.json", "summary.json", "series.csv"}
        name_max = _name_max(directory) if isinstance(directory, str) else None
        for i, sub in enumerate(solvers):
            if not isinstance(sub, dict):
                errors.append(f"solvers[{i}] must be an object")
                continue
            errors.extend(_field_errors(f"solvers[{i}]", SolverSpec, sub))
            accepted = DEAL_SOLVERS if family is None else family.solvers
            if sub.get("solver", SolverSpec.solver) not in accepted:
                errors.append(f"solvers[{i}].solver must be one of {accepted} "
                              f"for problem.kind {kind!r}")
            name = sub.get("name", SolverSpec.name)
            if not isinstance(name, str):
                continue
            # stems of a repeated run end in _rep<r>: they meet at repetition 0 or never
            files = [_stem(name, 0, repeated) + suffix
                     for suffix in (".csv", ".json", ".certificates.json")]
            try:
                # the longest file of a variant: its last repetition's certificates
                longest = len(os.fsencode(_stem(name, repetitions - 1 if repeated else 0,
                                                repeated) + ".certificates.json"))
            except UnicodeEncodeError:
                longest = None
            if (longest is None or name in ("", ".", "..") or Path(name).name != name
                    or "\0" in name):
                errors.append(f"solvers[{i}].name must be a plain file name, got {name!r}")
            elif name_max is not None and longest > name_max:
                errors.append(f"solvers[{i}].name gives a file name of {longest} bytes; the "
                              f"file system of output.directory allows {name_max}")
            elif not taken.isdisjoint(files):
                shared = next(file for file in files if file in taken)
                errors.append(f"solvers[{i}].name {name!r} would overwrite {shared}, a file "
                              "of the run directory or of an earlier solver")
            taken.update(files)
    return errors


def _output_error(directory) -> Optional[str]:
    """Why a run may not take the place of ``directory``, or None.  The run
    replaces the directory whole, so it may not hold the working directory,
    and an existing one must be empty or a previous run directory, which
    holds ``summary.json``."""
    path, cwd = Path(os.path.abspath(directory)), Path.cwd()
    if path == cwd or path in cwd.parents:
        return "holds the working directory, which a run cannot replace"
    if path.exists() and not (path.is_dir() and (
            (path / "summary.json").is_file() or not any(path.iterdir()))):
        return "is neither empty nor a run directory (one that holds summary.json)"
    return None


def _name_max(directory: str) -> int:
    """The longest file name, in bytes, that the file system holding
    ``directory``, or its nearest existing ancestor, allows."""
    path = os.path.abspath(directory)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    return os.pathconf(path, "PC_NAME_MAX")


def _stem(name: str, rep: int, repeated: bool) -> str:
    """A variant's file stem: its name, or ``name_rep{rep}`` in a repeated run."""
    return f"{name}_rep{rep}" if repeated else name


def _number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# per field annotation, as the string that annotations are kept as: the test
# a config value must pass and what it asks for.  As in JSON, a bool is not a
# number.
_FIELD_TYPES = {
    "float": (_number, "a number"),
    "int": (is_integer, "an integer"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "Optional[float]": (lambda v: v is None or _number(v), "a number or null"),
    "Union[float, Literal['auto']]": (lambda v: _number(v) or isinstance(v, str) and v == "auto",
                                      "a number or 'auto'"),
}
# the least value of a field that has one: a run repeats at least once, and
# numpy draws from no negative seed
_LEAST = {"run.repetitions": 1, "problem.seed": 0, "run.x0_seed": 0}


def _field_errors(key: str, klass, sub: dict) -> list:
    """Messages for the keys of ``sub`` that ``klass`` lacks and for the
    values that fail their field's test in ``_FIELD_TYPES`` or lie below
    their least value in ``_LEAST``.  No field takes a NaN or an infinity."""
    types = {f.name: _FIELD_TYPES[f.type] for f in dataclasses.fields(klass)}
    errors = []
    for k, value in sub.items():
        if k not in types:
            errors.append(f"{key}.{k} is not a recognized key")
        elif not types[k][0](value):
            errors.append(f"{key}.{k} must be {types[k][1]}, got {value!r}")
        elif isinstance(value, float) and not math.isfinite(value):
            errors.append(f"{key}.{k} must be finite, got {value!r}")
        elif f"{key}.{k}" in _LEAST and value < _LEAST[f"{key}.{k}"]:
            errors.append(f"{key}.{k} must be at least {_LEAST[f'{key}.{k}']}, got {value}")
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

    Each iterate is re-evaluated while the run proceeds, by a
    ``Reevaluation`` in the certificate context that the solver's
    ``observe`` hook feeds, through the run's batch oracle ``ctx["rows"]``:
    the reference optimum is taken first, so that the distance of each
    iterate to it is known where a certificate reads it, and no iterate
    outlives its re-evaluation block.
    """
    check_count("run.x0_seed", run.x0_seed, 0)
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
    reevaluation = ctx["reevaluation"] = Reevaluation(ctx["rows"], ctx.get("xstar"))
    trace = solve(x0, reevaluation.add)
    trace.seed, trace.config_digest = run.x0_seed + rep, digest
    certificates = certify_run(trace, ctx)
    return RunResult(name=spec.name, trace=trace, certificates=certificates,
                     ok=bundle_ok(certificates), fstar=ctx.get("fstar"),
                     tau=ctx.get("tau") if trace.guaranteed else None)


def _configure_variant(problem, spec: SolverSpec, run: RunSpec):
    """One variant's solver, configured on a built problem, and its
    certificate context: ``(solve, ctx)``, where ``solve(x0, observe)``
    runs it, handing each recorded iterate to ``observe`` unless that is
    None, and ``ctx`` holds the run's batch oracle ``rows`` (with, for a
    bhippa run, its ``prox_oracle`` check) and, for a DEAL run, whether it
    is ``guaranteed``.

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
    # the run's constants, each refused here unless it is a positive finite double
    guaranteed = deal_trace(objective, cfg, spec.solver)[1].guaranteed
    return (lambda x0, observe: runner(objective, x0, cfg, observe),
            {"rows": problem.value_grad_rows, "guaranteed": guaranteed})


def _run_bpga(problem, spec, run):
    composite = problem.as_composite()
    beta = 0.0 if spec.beta == "auto" else float(spec.beta)
    rule = DirectionRule(spec.direction, beta=beta, memory=spec.memory)
    cfg = BoostedConfig(gamma=spec.gamma, sigma=spec.sigma,
                        max_linesearch=spec.max_linesearch, rule=rule,
                        eps=run.eps, max_iter=run.max_iter,
                        **_given(alpha_bar=spec.alpha_bar))
    gamma = bpga_constants(composite, cfg)[0]
    return (lambda x0, observe: run_bpga(composite, x0, cfg, observe),
            {"rows": lambda X: problem.fbe_rows(X, gamma)})


def _run_bhippa(problem, spec, run):
    phi = problem.as_prox_capable()
    # kl_info refuses an exponent out of (0, 1), s = 1e17 say, whatever the order
    kl = problem.kl_info()
    order = kl.order if spec.order == "auto" else float(spec.order)
    rule = DirectionRule(spec.direction, beta=0.0 if spec.beta == "auto" else float(spec.beta),
                         memory=spec.memory)
    cfg = BoostedConfig(gamma=spec.gamma, sigma=spec.sigma, eta=spec.eta, p=order,
                        max_linesearch=spec.max_linesearch, rule=rule,
                        eps=run.eps, max_iter=run.max_iter)
    gamma = bhippa_constants(cfg, problem.n)[0]
    return (lambda x0, observe: run_bhippa(phi, x0, cfg, observe), {
        "rows": lambda X: envelopes.home_rows(phi, X, gamma, order),
        "prox_oracle": lambda x: envelopes.prox_oracle_check(phi, x, gamma, order),
    })


# each runner configures a variant and returns its solve(x0, observe), which
# gives the trace, with the direction rule's fallback count in its extras,
# and its certificate context (rows, ...)
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
    iterate criterion; without one, as ``deal certify`` calls it on a
    logged trace, nothing is re-evaluated and the checks read the values the
    solver logged.  It then cross-checks the run's prox at the final iterate
    against the grid oracle when the run supplies that check
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
    the problem and every variant's ranges are checked before anything is
    written.  The run is written into a fresh sibling of the run directory,
    which takes its place, replacing a previous run directory there, only
    once ``summary.json`` and ``series.csv`` are written: a run that fails
    or is interrupted leaves the run directory as it was.
    """
    _check_config(config.as_dict())
    problem = build_problem(config.problem)
    for spec in config.solvers:
        _configure_variant(problem, spec, config.run)
    out = Path(config.output.directory)
    out.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(dir=out.parent, prefix=f".{out.name}."))
    try:
        # a directory made inside the staging one, unlike mkdtemp's own,
        # gets the permissions of any new directory
        run_dir = staging / "run"
        run_dir.mkdir()
        (run_dir / "problem.json").write_text(json.dumps(problem.descriptor(), indent=2,
                                                         default=_json_default))
        # where the run is written is the caller's choice, not part of the run
        recorded = {key: value for key, value in config.as_dict().items() if key != "output"}
        (run_dir / "config.json").write_text(json.dumps(recorded, indent=2))
        summary = {"variants": [], "ok": True, "terminations": Counter()}
        series = {}
        for spec in config.solvers:
            for rep in range(config.run.repetitions):
                stem = _stem(spec.name, rep, config.run.repetitions > 1)
                # the finished run is bound only inside _persist_variant, so its
                # trace is released before the next variant runs
                series[stem] = _persist_variant(
                    run_dir, stem, problem, rep,
                    run_variant(problem, spec, config.run, rep), summary)
        (run_dir / "summary.json").write_text(json.dumps(summary, indent=2,
                                                         default=_json_default))
        emit_plot_data(run_dir, series)
        previous = staging / "previous"
        refusal = _output_error(out)
        if refusal:   # filled while the run went on
            raise UsageError(f"{out} now {refusal}; the run is discarded")
        if out.exists():
            os.replace(out, previous)
        try:
            os.replace(run_dir, out)
        except BaseException:
            if previous.exists():
                os.replace(previous, out)
            raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return out


def _persist_variant(out: Path, stem: str, problem, rep: int, result: RunResult,
                     summary: dict):
    """Write one finished run's trace CSV, sidecar and certificates, add its
    row to ``summary``, and return its series for ``emit_plot_data``."""
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
    # the last record's k: a run that skips a fixed point's steps made them all
    iterations = trace.k[-1] if len(trace) else 0
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
    return result.fstar, trace.k, trace.f, trace.grad_norm


def emit_plot_data(run_dir, series) -> Path:
    """Write a run directory's series.csv: variant,k,f_gap,grad_norm.

    ``series`` maps each trace's stem to its series ``(fstar, k, f,
    grad_norm)``, the last three the trace's own columns, as
    ``run_experiment`` keeps them in memory.  The traces go in file-name
    order, each written by ``core.write_rows`` a line at a time, so no list
    of a variant's rows is built.  Each row's ``variant`` is its trace's
    stem: the variant's name, and in a repeated run ``name_rep{r}``, so the
    repetitions stay apart.
    """
    target = Path(run_dir) / "series.csv"
    with open(target, "w") as fh:
        fh.write("variant,k,f_gap,grad_norm\n")
        for stem in sorted(series, key=lambda stem: stem + ".csv"):
            fstar, k, f, grad_norm = series[stem]
            f = np.asarray(f)
            gap = f - (fstar if fstar is not None else float(f.min()))
            write_rows(fh, f"{stem},", k, [gap, grad_norm], lambda a, b: f"{a!r},{b!r}\n")
    return target


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


def _leastp_study(sigma: float, seed: int):
    """The least-p study (1000 samples, 200 features): the constant-step and
    backtracking families, each with its heuristic rescalings, at the Armijo
    acceptance constant ``sigma``."""
    # each family's guaranteed variant ("auto"), then DEAL-C1, DEAL-C2, ...
    return (ProblemSpec(kind="leastp", m=1000, n=200, p=1.5, seed=seed, consistent=True),
            [SolverSpec(name=f"{fam}{i or ''}", solver=solver, beta=beta, sigma=sigma)
             for fam, solver in (("DEAL-C", "deal-c"), ("DEAL-A", "deal-a"))
             for i, beta in enumerate(("auto",) + HEURISTIC_BETAS)])


def _lasso_study(seed: int):
    """The l1 regression study (1000 samples, 10 features) with the five
    boosted proximal-gradient variants."""
    return (ProblemSpec(kind="lasso", m=1000, n=10, lam=0.1, seed=seed, consistent=False),
            [SolverSpec(name="BPGA", solver="bpga", beta=0.0),
             SolverSpec(name="BPGA-1", solver="bpga", beta=0.5)]
            + [SolverSpec(name=f"BPGA-{kind.upper()}", solver="bpga", direction=kind)
               for kind in ("bb1", "bb2", "lbfgs")])


# the named studies: each maps a seed to the study's problem and a fresh list
# of its solver variants; sec51 and sec52 differ only in the Armijo constant
PRESETS = {
    "sec51": functools.partial(_leastp_study, 1e-4),
    "sec52": functools.partial(_leastp_study, 0.5),
    "sec53": _lasso_study,
}


def preset(name: str, seed: int = 0, out_dir: str = "runs") -> ExperimentConfig:
    """The config of the named study of ``PRESETS`` (any case) at ``seed``,
    which seeds both the problem and the start points, written to
    ``out_dir/<name>``."""
    name = name.lower()
    if name not in PRESETS:
        raise UsageError(f"unknown preset {name!r}; expected one of {', '.join(PRESETS)}")
    problem, solvers = PRESETS[name](seed)
    return ExperimentConfig(problem=problem, solvers=solvers, run=RunSpec(x0_seed=seed),
                            output=OutputSpec(directory=str(Path(out_dir) / name)))
