"""Command-line entry point.

Verbs: run (one solver on one generated problem), sweep (a named preset),
certify and analyze (the certificate bundle of a persisted trace; certify
takes the run's constants from the sidecar next to the trace, and needs the
solver's rho and theta without one), envelope (evaluate an envelope at a
point), oracle (debugging access to the numerical oracles).  Exit codes:
0 ok, 1 usage error, 2 certificate failure, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bench, directions, envelopes, oracles, problems
from .core import DataError, IterateTrace, NumericalError, UsageError, as_vector

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERTIFICATE = 2
EXIT_NUMERICAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="deal",
                                     description="generalized-descent benchmark runner")
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="run one solver variant on a generated problem")
    # each default is read from its field in the specs a run is built from
    problem_spec, solver_spec, run_spec = bench.ProblemSpec, bench.SolverSpec, bench.RunSpec
    run.add_argument("--problem", choices=tuple(problems.FAMILIES), default=problem_spec.kind)
    run.add_argument("--m", type=int, default=problem_spec.m)
    run.add_argument("--n", type=int, default=problem_spec.n)
    run.add_argument("--p", type=float, default=problem_spec.p, help="least-p exponent")
    run.add_argument("--lam", type=float, default=problem_spec.lam, help="l1 weight")
    run.add_argument("--s", type=float, default=problem_spec.s, help="separable power exponent")
    run.add_argument("--seed", type=int, default=problem_spec.seed)
    run.add_argument("--inconsistent", dest="consistent", action="store_false",
                     help="draw b at random instead of planting b = A x_true")
    run.add_argument("--solver", choices=bench.DEAL_SOLVERS, default=solver_spec.solver)
    run.add_argument("--beta", default=solver_spec.beta,
                     help="'auto' = (1-nu)/nu, or a real > -1")
    run.add_argument("--direction", choices=directions.KINDS, default=solver_spec.direction)
    run.add_argument("--sigma", type=float, default=solver_spec.sigma)
    run.add_argument("--eta", type=float, default=solver_spec.eta)
    run.add_argument("--alpha-bar", type=float, default=solver_spec.alpha_bar)
    run.add_argument("--gamma", type=float, default=solver_spec.gamma)
    run.add_argument("--order", default=solver_spec.order,
                     help="'auto' matches the dominance exponent, or a real > 1")
    run.add_argument("--eps", type=float, default=run_spec.eps)
    run.add_argument("--max-iter", type=int, default=run_spec.max_iter)
    run.add_argument("--x0-seed", type=int, default=run_spec.x0_seed)
    run.add_argument("--repetitions", type=int, default=run_spec.repetitions)
    run.add_argument("--out", default="runs/single")

    sweep = sub.add_parser("sweep", help="run a named preset study")
    sweep.add_argument("--preset", choices=tuple(bench.PRESETS), required=True)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out", default="runs")
    sweep.add_argument("--config", default=None,
                       help="JSON config file; overrides the preset fields")

    for verb, text in (
            ("certify", "re-check a trace CSV's certificates, with the constants "
                        "of the sidecar STEM.json next to it when there is one"),
            ("analyze", "rate fit and certificates of a trace CSV")):
        cert = sub.add_parser(verb, help=text)
        cert.add_argument("--trace", required=True)
        cert.add_argument("--rho", type=float, default=None)
        cert.add_argument("--theta", type=float, default=None)
        cert.add_argument("--c", type=float, default=None, help="displacement constant")
        cert.add_argument("--fstar", type=float, default=None)
        cert.add_argument("--tau", type=float, default=None,
                          help="gradient-dominance constant")
        cert.add_argument("--eps", type=float, default=None,
                          help="the run's tolerance, for the complexity bounds; "
                               "read from the trace's sidecar when unset")

    env = sub.add_parser("envelope", help="evaluate an envelope at a point")
    env.add_argument("--g", choices=("l1", "powerabs"), default="l1")
    env.add_argument("--weight", type=float, default=1.0, help="l1 weight")
    env.add_argument("--s", type=float, default=4.0)
    env.add_argument("--p", type=float, default=2.0)
    env.add_argument("--gamma", type=float, default=0.5)
    env.add_argument("--at", required=True,
                     help="JSON file holding the evaluation point (array)")

    orc = sub.add_parser("oracle", help="debugging access to the numerical oracles")
    orc_sub = orc.add_subparsers(dest="oracle_verb", required=True)
    fd = orc_sub.add_parser("fd-grad")
    fd.add_argument("--problem", choices=tuple(problems.FAMILIES), default=bench.ProblemSpec.kind)
    fd.add_argument("--m", type=int, default=20)
    fd.add_argument("--n", type=int, default=5)
    fd.add_argument("--p", type=float, default=1.5)
    fd.add_argument("--lam", type=float, default=0.1)
    fd.add_argument("--seed", type=int, default=0)
    fd.add_argument("--at", required=True)
    spec = orc_sub.add_parser("spectral")
    spec.add_argument("--matrix", required=True, help="JSON file holding a matrix")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself; fold into our codes
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return _dispatch(args)
    except (UsageError, DataError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def _dispatch(args) -> int:
    # argparse admits only the verbs of build_parser
    return {"run": _cmd_run, "sweep": _cmd_sweep, "certify": _cmd_certify,
            "analyze": _cmd_certify, "envelope": _cmd_envelope,
            "oracle": _cmd_oracle}[args.verb](args)


def _auto_or_float(text: str):
    """A real, or the text itself ("auto" or one that ``validate_config``
    then rejects, naming its key)."""
    try:
        return float(text)
    except ValueError:
        return text


def _cmd_run(args) -> int:
    beta, order = _auto_or_float(args.beta), _auto_or_float(args.order)
    config = bench.ExperimentConfig(
        problem=bench.ProblemSpec(kind=args.problem, m=args.m, n=args.n, p=args.p,
                                  lam=args.lam, s=args.s, seed=args.seed,
                                  consistent=args.consistent),
        solvers=[bench.SolverSpec(
            name=args.solver.upper(), solver=args.solver, beta=beta,
            direction=args.direction, sigma=args.sigma,
            eta=args.eta, alpha_bar=args.alpha_bar, gamma=args.gamma,
            order=order)],
        run=bench.RunSpec(eps=args.eps, max_iter=args.max_iter,
                          x0_seed=args.x0_seed, repetitions=args.repetitions),
        output=bench.OutputSpec(directory=args.out),
    )
    out = bench.run_experiment(config)
    summary = json.loads((out / "summary.json").read_text())
    print(json.dumps(summary, indent=2))
    return EXIT_OK if summary["ok"] else EXIT_CERTIFICATE


def _cmd_sweep(args) -> int:
    config = bench.preset(args.preset, seed=args.seed, out_dir=args.out)
    if args.config:
        doc = json.loads(Path(args.config).read_text())
        if not isinstance(doc, dict):
            raise UsageError("invalid experiment config: config must be a JSON object")
        merged = config.as_dict()
        for key, value in doc.items():
            # a dict merges into a dict; anything else replaces the preset's
            if isinstance(value, dict) and isinstance(merged.get(key), dict):
                merged[key].update(value)
            else:
                merged[key] = value
        config = bench.ExperimentConfig.from_dict(merged)
    out = bench.run_experiment(config)
    summary = json.loads((out / "summary.json").read_text())
    print(json.dumps(summary, indent=2))
    return EXIT_OK if summary["ok"] else EXIT_CERTIFICATE


def _cmd_certify(args) -> int:
    """The certificate bundle a run writes, for a persisted trace.

    rho and theta make the trace guaranteed; without them it gets the rate
    fit alone.  A trace CSV holds no iterates, so nothing is re-evaluated.
    ``certify`` takes every constant of the run from the sidecar
    ``STEM.json`` that a run writes next to ``STEM.csv``: rho and theta (of
    a guaranteed run only), c, fstar, tau and eps.  A flag may supply a
    constant the sidecar does not record, but one that contradicts it is an
    error.  Without a sidecar, ``certify`` needs --rho and --theta.
    ``analyze`` takes the constants from its flags, and only the run's
    tolerance from the sidecar when --eps is unset.  Only a guaranteed
    bundle reads tau and c, so --tau or --c given for a trace that is not
    guaranteed is an error, not a flag without effect.
    """
    given = [name for name in ("tau", "c") if getattr(args, name) is not None]
    sidecar = _read_sidecar(args.trace)
    if args.verb == "certify":
        if sidecar is not None:
            _take_sidecar_constants(args, sidecar)
        elif args.rho is None or args.theta is None:
            raise UsageError("certify needs --rho and --theta: no sidecar next to "
                             "the trace records them")
    if (args.rho is None) != (args.theta is None):
        raise UsageError("give both --rho and --theta, or neither")
    guaranteed = args.rho is not None
    if given and not guaranteed:
        raise UsageError(f"--{given[0]} needs a guaranteed trace: no --rho and --theta, "
                         "and no sidecar of a guaranteed run records them")
    eps = args.eps
    if eps is None and sidecar is not None:
        eps = sidecar["extras"].get("eps")
    if guaranteed and args.tau is not None and eps is None:
        raise UsageError("--tau needs --eps: no sidecar next to the trace records "
                         "the run's tolerance")
    trace = IterateTrace.from_csv(
        args.trace, guaranteed=guaranteed, extras={"eps": eps, "c": args.c},
        **({"rho": args.rho, "theta": args.theta} if guaranteed else {}))
    bundle = bench.certify_run(trace, {"fstar": args.fstar, "tau": args.tau})
    print(json.dumps(bundle, indent=2, default=bench._json_default))
    return EXIT_OK if bench.bundle_ok(bundle) else EXIT_CERTIFICATE


def _read_sidecar(trace_path):
    """The sidecar ``STEM.json`` next to a trace ``STEM.csv``, or None
    without one."""
    sidecar = Path(trace_path).with_suffix(".json")
    if not sidecar.is_file():
        return None
    doc = json.loads(sidecar.read_text())
    if not isinstance(doc, dict) or not isinstance(doc.get("extras"), dict):
        raise DataError(f"{sidecar} is not the sidecar of a run")
    return doc


def _take_sidecar_constants(args, sidecar: dict) -> None:
    """Set each constant flag from the sidecar; a flag that contradicts it
    is a usage error.  A heuristic run certifies no rho and theta."""
    guaranteed = sidecar.get("guaranteed") is True
    recorded = {"rho": sidecar.get("rho") if guaranteed else None,
                "theta": sidecar.get("theta") if guaranteed else None,
                "c": sidecar["extras"].get("c"), "fstar": sidecar.get("fstar"),
                "tau": sidecar.get("tau"), "eps": sidecar["extras"].get("eps")}
    for name, value in recorded.items():
        given = getattr(args, name)
        if value is None:
            if given is not None and name in ("rho", "theta"):
                raise UsageError(f"--{name} contradicts the sidecar of {args.trace}: "
                                 "the run is heuristic and certifies no rho or theta")
            continue
        if given is not None and given != value:
            raise UsageError(f"--{name} {given!r} contradicts the sidecar of "
                             f"{args.trace}, which records {value!r}")
        setattr(args, name, value)


def _cmd_envelope(args) -> int:
    x = as_vector(json.loads(Path(args.at).read_text()), name="--at")
    g = envelopes.L1Norm(args.weight) if args.g == "l1" else envelopes.AbsPower(args.s)
    ev = envelopes.home_value_grad(g, x, args.gamma, args.p)
    print(json.dumps({
        "x": ev.x.tolist(),
        "prox_point": ev.prox_point.tolist(),
        "value": ev.value,
        "gradient": None if ev.gradient is None else ev.gradient.tolist(),
        "multi_valued": ev.multi_valued,
    }, indent=2))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.oracle_verb == "fd-grad":
        prob = problems.generate_problem(args.seed, args.problem, args.m, args.n,
                                         p=args.p, lam=args.lam)
        x = as_vector(json.loads(Path(args.at).read_text()), prob.n, "--at")
        if hasattr(prob, "as_smooth"):
            smooth = prob.as_smooth()
            value, gradient = smooth.value, smooth.complete(smooth.value(x)).gradient
        else:
            # powerabs, a bhippa family, has no smooth objective: phi's own oracles
            value, gradient = prob.value, prob.grad(x)
        fd = oracles.finite_diff_gradient(value, x)
        print(json.dumps({"finite_diff": fd.tolist(),
                          "closed_form": np.asarray(gradient).tolist()}, indent=2))
        return EXIT_OK
    if args.oracle_verb == "spectral":
        # spectral_constants refuses a matrix that is not one of numbers
        A = json.loads(Path(args.matrix).read_text())
        spec = oracles.spectral_constants(A)
        it = oracles.iterative_spectral_constants(A)
        print(json.dumps({"opnorm": spec.opnorm, "sigma_min": spec.sigma_min,
                          "iterative": {"opnorm": it.opnorm,
                                        "sigma_min": it.sigma_min}}, indent=2))
        return EXIT_OK
    raise UsageError(f"unknown oracle verb {args.oracle_verb!r}")


if __name__ == "__main__":
    sys.exit(main())
