import argparse
import csv
import io
import json
import os
import re
import warnings
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dealopt import bench, cli, directions, problems
from dealopt.core import REEVALUATE_BLOCK, TRACE_COLUMNS, Reevaluation, UsageError, _fmt


def small_config(tmp_path, solvers=None, **problem_kw):
    problem = dict(kind="leastp", m=50, n=10, p=1.5, seed=1, consistent=True)
    problem.update(problem_kw)
    return bench.ExperimentConfig(
        problem=bench.ProblemSpec(**problem),
        solvers=solvers or [
            bench.SolverSpec(name="DEAL-C", solver="deal-c"),
            bench.SolverSpec(name="DEAL-A", solver="deal-a"),
        ],
        run=bench.RunSpec(x0_seed=3),
        output=bench.OutputSpec(directory=str(tmp_path / "out")),
    )


def tree_bytes(run_dir):
    """{relative path: bytes} of every file under ``run_dir``."""
    return {path.relative_to(run_dir): path.read_bytes()
            for path in run_dir.rglob("*") if path.is_file()}


def run_keeping_traces(config):
    """Run an experiment; return its run directory, the solver's trace of
    each variant, and the trace its certificates re-evaluated."""
    traces, checked, reevaluated = {}, {}, []
    run_variant, certify_run = bench.run_variant, bench.certify_run

    def kept(problem, spec, run, rep=0):
        result = run_variant(problem, spec, run, rep)
        traces[spec.name] = result.trace
        checked[spec.name] = reevaluated.pop()
        return result

    def kept_reevaluation(trace, ctx):
        reevaluated.append(ctx["reevaluation"].result(trace)[0])
        return certify_run(trace, ctx)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(bench, "run_variant", kept)
        m.setattr(bench, "certify_run", kept_reevaluation)
        out = bench.run_experiment(config)
    return out, traces, checked


@pytest.fixture(scope="module")
def sec51_run(tmp_path_factory):
    """sec51 seed 0's run directory, the solver's trace of each variant, and
    the trace its certificates re-evaluated."""
    return run_keeping_traces(bench.preset(
        "sec51", 0, out_dir=str(tmp_path_factory.mktemp("sec51"))))


def bhippa_config(n, seed):
    return bench.ExperimentConfig(
        problem=bench.ProblemSpec(kind="powerabs", n=n, s=4.0, seed=seed),
        solvers=[bench.SolverSpec(name="BHIPPA", solver="bhippa", order="auto")],
        run=bench.RunSpec(x0_seed=seed))


def assert_strict_json(run_dir, n_files):
    """Every JSON file in run_dir parses without NaN or Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not valid JSON")
    files = sorted(run_dir.glob("*.json"))
    assert len(files) == n_files
    for path in files:
        json.loads(path.read_text(), parse_constant=reject)


def verdicts(bundle, path=""):
    """Every ``passed`` and ``n_checked`` in a certificate bundle, by path."""
    found = {}
    items = bundle.items() if isinstance(bundle, dict) else (
        enumerate(bundle) if isinstance(bundle, list) else ())
    for key, value in items:
        if key in ("passed", "n_checked"):
            found[path + key] = value
        found.update(verdicts(value, f"{path}{key}."))
    return found


class TestConfigValidation:
    def test_round_trip(self):
        cfg = bench.preset("sec53")
        doc = cfg.as_dict()
        back = bench.ExperimentConfig.from_dict(doc)
        assert back.as_dict() == doc

    def test_offending_keys_listed(self):
        errors = bench.validate_config({
            "problem": {"kind": "leastp", "bogus": 1},
            "solvers": [{"solver": "nope"}],
            "mystery": {},
        })
        joined = " ".join(errors)
        assert "problem.bogus" in joined
        assert "mystery" in joined
        assert "solvers[0].solver" in joined
        with pytest.raises(UsageError):
            bench.ExperimentConfig.from_dict({"mystery": {}})

    def test_values_are_checked_against_their_field_annotation(self):
        # an int is a number, None fills an Optional field, "auto" a beta or order
        assert bench.validate_config({
            "problem": {"p": 2, "consistent": False}, "run": {"eps": 1},
            "solvers": [{"beta": "auto", "order": 3, "sigma": None, "gamma": 0.5}]}) == []
        assert bench.validate_config({
            "problem": {"seed": True, "lam": False, "consistent": 1},
            "solvers": [{"beta": "Auto", "sigma": "0.1", "name": 1}]}) == [
            "problem.seed must be an integer, got True",
            "problem.lam must be a number, got False",
            "problem.consistent must be true or false, got 1",
            "solvers[0].beta must be a number or 'auto', got 'Auto'",
            "solvers[0].sigma must be a number or null, got '0.1'",
            "solvers[0].name must be a string, got 1"]

    def test_the_removed_store_iterates_is_refused(self, tmp_path, capsys):
        # every run re-evaluates its iterates: a config or flag that would
        # turn that off is refused, not ignored, and writes nothing
        override = tmp_path / "f.json"
        override.write_text(json.dumps({"run": {"store_iterates": True}}))
        assert cli.main(["sweep", "--preset", "sec53", "--config", str(override),
                         "--out", str(tmp_path / "runs")]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == ("error: invalid experiment config: "
                                           "run.store_iterates is not a recognized key\n")
        assert cli.main(["run", "--problem", "leastp", "--m", "40", "--n", "8",
                         "--no-store-iterates", "--out", str(tmp_path / "runs")]
                        ) == cli.EXIT_USAGE
        assert "--no-store-iterates" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    # a constant that underflows to 0 or below the smallest normal double, or
    # overflows one, exits 1 with one error line and no run directory, before
    # any variant runs and with no numpy warning
    @pytest.mark.parametrize("args, error", [
        ({"solver": "deal-c", "c2": 1e308}, "step must be a positive finite double, got nan"),
        ({"solver": "deal-c", "c1": 1e-300}, "step must be a positive finite double, got 0.0"),
        ({"solver": "deal-a", "c1": 1e-300}, "c_bar must be a positive finite double, got 0.0"),
        (["run", "--problem", "powerabs", "--n", "10", "--s", "4", "--solver", "bhippa",
          "--gamma", "1e-300", "--order", "1.5", "--max-iter", "50"],
         "rho must be a positive finite double, got 0.0"),
        (["run", "--problem", "lasso", "--m", "30", "--n", "10", "--solver", "bpga",
          "--sigma", "5e-324", "--max-iter", "20"],
         "rho must be a positive finite double, got 0.0"),
        (["run", "--problem", "lasso", "--m", "30", "--n", "10", "--solver", "bpga",
          "--sigma", "1e-320", "--max-iter", "20"],
         "rho must be a positive finite double, got 2.63e-321 (subnormal)"),
        (["run", "--problem", "leastp", "--m", "40", "--n", "8", "--solver", "deal-a",
          "--sigma", "1e-320", "--max-iter", "20"],
         "rho must be a positive finite double, got 1e-323 (subnormal)"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_constant_out_of_a_doubles_range_is_refused(self, tmp_path, capsys,
                                                          monkeypatch, args, error):
        monkeypatch.setattr(bench, "run_variant",
                            lambda *a: pytest.fail("a variant ran before the refusal"))
        if isinstance(args, dict):
            override = tmp_path / "f.json"
            override.write_text(json.dumps({"solvers": [{"name": "V", **args}]}))
            args = ["sweep", "--preset", "sec51", "--config", str(override)]
        assert cli.main(args + ["--out", str(tmp_path / "runs")]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error} from ") and err.count("\n") == 1
        assert not (tmp_path / "runs").exists()


class TestRunExperiment:
    def test_files_and_certificates(self, tmp_path):
        out = bench.run_experiment(small_config(tmp_path))
        assert (out / "problem.json").exists()
        assert (out / "config.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ok"]
        for name in ("DEAL-C", "DEAL-A"):
            assert (out / f"{name}.csv").exists()
            certs = json.loads((out / f"{name}.certificates.json").read_text())
            assert certs["descent"]["passed"]
            assert certs["displacement"]["passed"]
            # deal-a's bound stays at or above ||grad f(x^0)|| on every prefix
            # of its run: a check with no live case reaches no verdict
            assert certs["min_grad_bound"]["passed"] is {"DEAL-C": True, "DEAL-A": None}[name]
            assert certs["complexity"]["passed"]
            assert certs["per_step_ratio"]["passed"]
            sidecar = json.loads((out / f"{name}.json").read_text())
            assert sidecar["fstar"] == pytest.approx(0.0, abs=1e-18)

    def test_determinism_byte_identical(self, tmp_path):
        # config.json records no output path, so one config written into two
        # directories whose paths differ in length gives the same files
        out1 = bench.run_experiment(small_config(tmp_path / "a"))
        out2 = bench.run_experiment(small_config(tmp_path / "a-much-longer-directory-name"))
        assert "output" not in json.loads((out1 / "config.json").read_text())
        assert len(tree_bytes(out1)) == 10 and tree_bytes(out1) == tree_bytes(out2)

    def test_a_finished_variant_is_released_before_the_next_runs(self, tmp_path,
                                                                  monkeypatch):
        """No earlier variant's trace or last iterate is alive when a variant
        starts, counted without a garbage collection: reference counting
        frees them."""
        finished, alive = [], []
        run_variant, certify_run = bench.run_variant, bench.certify_run

        def watched(problem, spec, run, rep=0):
            alive.append(sum(ref() is not None for ref in finished))
            result = run_variant(problem, spec, run, rep)
            finished.append(weakref.ref(result.trace))
            return result

        def certified(trace, ctx):
            finished.append(weakref.ref(ctx["reevaluation"].last))
            return certify_run(trace, ctx)
        monkeypatch.setattr(bench, "run_variant", watched)
        monkeypatch.setattr(bench, "certify_run", certified)
        cfg = small_config(tmp_path, m=40, n=8)
        cfg.run = bench.RunSpec(x0_seed=3, repetitions=2, max_iter=200)
        bench.run_experiment(cfg)
        assert alive == [0, 0, 0, 0]

    def test_reevaluated_displacements_are_the_solvers_bit_for_bit(self, sec51_run,
                                                                   tmp_path):
        _, sec51, sec51_checked = sec51_run
        _, sec53, sec53_checked = run_keeping_traces(
            bench.preset("sec53", 0, out_dir=str(tmp_path)))
        assert len(sec53) == 5
        pairs = {name: (sec51[name], sec51_checked[name])
                 for name in ("DEAL-C", "DEAL-A", "DEAL-A1")}
        pairs.update((name, (sec53[name], sec53_checked[name])) for name in sec53)
        for name, traces in pairs.items():
            logged, rebuilt = (np.array(trace.displacement) for trace in traces)
            assert len(logged) > 1 and logged.tobytes() == rebuilt.tobytes(), name

    def test_heuristic_variant_skips_guarantees(self, tmp_path):
        cfg = small_config(tmp_path, solvers=[
            bench.SolverSpec(name="DEAL-C3", solver="deal-c", beta=-0.2)])
        cfg.run.max_iter = 2000
        out = bench.run_experiment(cfg)
        certs = json.loads((out / "DEAL-C3.certificates.json").read_text())
        assert not certs["guaranteed"]
        assert "descent" not in certs
        assert "rate" not in certs or certs["rate"] is not None

    def test_series_output(self, tmp_path):
        out = bench.run_experiment(small_config(tmp_path))
        lines = (out / "series.csv").read_text().splitlines()
        assert lines[0] == "variant,k,f_gap,grad_norm"
        variants = {line.split(",")[0] for line in lines[1:]}
        assert variants == {"DEAL-C", "DEAL-A"}
        for variant in variants:
            gaps = [float(l.split(",")[2]) for l in lines[1:]
                    if l.split(",")[0] == variant]
            assert all(g1 <= g0 + 1e-18 for g0, g1 in zip(gaps, gaps[1:]))

    def test_repetitions_get_distinct_files(self, tmp_path):
        cfg = small_config(tmp_path, solvers=[
            bench.SolverSpec(name="DEAL-A", solver="deal-a")])
        cfg.run.repetitions = 2
        out = bench.run_experiment(cfg)
        assert (out / "DEAL-A_rep0.csv").exists()
        assert (out / "DEAL-A_rep1.csv").exists()

    @pytest.mark.parametrize("kind", ["leastp", "powerabs"])
    def test_stop_before_first_step_writes_strict_json(self, tmp_path, kind):
        solvers = ([bench.SolverSpec(name="DEAL-C", solver="deal-c"),
                    bench.SolverSpec(name="DEAL-A", solver="deal-a")]
                   if kind == "leastp"
                   else [bench.SolverSpec(name="BHIPPA", solver="bhippa")])
        problem = ({} if kind == "leastp"
                   else dict(kind="powerabs", s=4.0, n=3, m=0))
        cfg = small_config(tmp_path, solvers=solvers, **problem)
        cfg.run.eps = 1e9
        out = bench.run_experiment(cfg)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ok"]
        for variant in summary["variants"]:
            assert variant["iterations"] == 0
            assert variant["termination"] == "tolerance"
            certs = json.loads((out / f"{variant['variant']}.certificates.json")
                               .read_text())
            assert "displacement" not in certs
            assert certs["descent"]["n_checked"] == 0
            assert certs["descent"]["worst_violation"] is None
        assert_strict_json(out, 3 + 2 * len(solvers))

    def test_backtrack_limit_at_first_step_writes_a_summary(self, tmp_path):
        # every trial down to 1e30 * 2**-60 overshoots, so the first step fails
        cfg = small_config(tmp_path, solvers=[
            bench.SolverSpec(name="DEAL-A", solver="deal-a", alpha_bar=1e30)])
        out = bench.run_experiment(cfg)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["variants"][0]["termination"] == "backtrack_limit"
        assert summary["variants"][0]["iterations"] == 0
        certs = json.loads((out / "DEAL-A.certificates.json").read_text())
        assert "displacement" not in certs
        assert_strict_json(out, 5)

    def test_iterate_bound_beyond_float_range_writes_a_summary(self, tmp_path):
        # c = c2 * alpha_bar = 1e300 puts the iterate bound's s gap0 / rho far
        # beyond the float range; it is taken in log space instead
        cfg = small_config(tmp_path, solvers=[
            bench.SolverSpec(name="DEAL-A", solver="deal-a", alpha_bar=1e300)],
            m=40, n=8)
        with np.errstate(over="ignore", invalid="ignore"):
            out = bench.run_experiment(cfg)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["variants"][0]["termination"] == "backtrack_limit"
        certs = json.loads((out / "DEAL-A.certificates.json").read_text())
        iterate = [c for c in certs["complexity"]["checks"]
                   if c["criterion"] == "iterate"]
        assert len(iterate) == 1 and iterate[0]["bound"] > 1
        assert_strict_json(out, 5)

    def test_overflowing_trials_stop_without_a_warning(self, tmp_path):
        cfg = small_config(tmp_path, solvers=[
            bench.SolverSpec(name="DEAL-A", solver="deal-a", alpha_bar=1e300)],
            m=40, n=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = bench.run_experiment(cfg)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["variants"][0]["termination"] == "backtrack_limit"

    def test_sec53_solves_the_lasso_reference_once(self, tmp_path, monkeypatch):
        solves = []
        real = problems._lasso_reference

        def counted(problem):
            solves.append(problem)
            return real(problem)
        monkeypatch.setattr(problems, "_lasso_reference", counted)
        out = bench.run_experiment(bench.preset("sec53", 0, out_dir=str(tmp_path)))
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["variants"]) == 5 and summary["ok"]
        assert len(solves) == 1

    def test_leastp_reevaluation_makes_one_fused_call_per_record(self, monkeypatch,
                                                                  run_storing):
        # each distinct iterate is re-evaluated once, through one fused batch
        # call per block of REEVALUATE_BLOCK distinct iterates: the run makes
        # those calls and every per-point call of its solve alone, no more
        problem = bench.build_problem(bench.ProblemSpec(kind="leastp", m=40, n=8, seed=1))
        calls = Counter()
        rows = []
        for name in ("value", "complete", "value_grad_rows"):
            def counted(x, _real=getattr(problem, name), _name=name):
                calls[_name] += 1
                if _name == "value_grad_rows":
                    rows.append(len(x))
                return _real(x)
            monkeypatch.setattr(problem, name, counted)
        run = bench.RunSpec(max_iter=1500, x0_seed=3, eps=1e-30)
        # the start run_variant draws for repetition 0
        x0 = np.random.default_rng(run.x0_seed).uniform(-5.0, 5.0, size=problem.n)
        for solver in ("deal-c", "deal-a"):
            spec = bench.SolverSpec(solver=solver)
            calls.clear()
            bench._configure_variant(problem, spec, run)[0](x0, None)
            unchecked = Counter(calls)
            calls.clear()
            rows.clear()
            result, xs, _ = run_storing(problem, spec, run)
            assert result.certificates["reevaluated"]
            distinct = 1 + sum(b is not a for a, b in zip(xs, xs[1:]))
            assert distinct < len(xs)      # a replayed fixed-point tail
            assert calls - unchecked == {"value_grad_rows": -(-distinct // REEVALUATE_BLOCK)}
            assert unchecked - calls == {}
            assert calls["value_grad_rows"] > 1
            assert sum(rows) == distinct

    @pytest.mark.parametrize("solver", ["deal-c", "deal-a"])
    @pytest.mark.parametrize("kind, run", [
        pytest.param("leastp", dict(max_iter=1500, eps=1e-30), id="replayed-tail"),
        pytest.param("leastp", dict(max_iter=100), id="one-block"),
        pytest.param("leastp", dict(eps=1e9), id="one-record"),
        pytest.param("quadratic", dict(max_iter=1500, eps=1e-30), id="quadratic"),
    ])
    def test_batch_reevaluation_keeps_every_verdict(self, run_storing, certify_observed,
                                                    per_point, solver, kind, run):
        problem = bench.build_problem(bench.ProblemSpec(kind=kind, m=40, n=8, seed=1))
        result, xs, ctx = run_storing(problem, bench.SolverSpec(solver=solver),
                                      bench.RunSpec(x0_seed=3, **run))
        batched = result.certificates
        pointwise = certify_observed(result.trace, xs, ctx, per_point(problem, result.trace))
        assert batched["reevaluated"] and "descent" in batched
        assert verdicts(batched) == verdicts(pointwise)

    @pytest.mark.parametrize("config", [
        *(pytest.param(bench.preset("sec53", seed), id=str(seed)) for seed in range(5)),
        *(pytest.param(bhippa_config(100, seed), id=f"bhippa-n100-{seed}") for seed in (7, 8)),
    ])
    def test_bpga_batch_reevaluation_keeps_every_verdict(self, run_storing,
                                                         certify_observed, per_point,
                                                         config):
        problem = bench.build_problem(config.problem)
        for spec in config.solvers:
            result, xs, ctx = run_storing(problem, spec, config.run)
            batched = result.certificates
            pointwise = certify_observed(result.trace, xs, ctx,
                                         per_point(problem, result.trace))
            assert batched["reevaluated"] and "descent" in batched
            assert verdicts(batched) == verdicts(pointwise)

    def test_summary_counts_terminations_by_cause(self, tmp_path):
        out = bench.run_experiment(bench.preset("sec53", 0, out_dir=str(tmp_path)))
        summary = json.loads((out / "summary.json").read_text())
        causes = Counter(v["termination"] for v in summary["variants"])
        assert summary["terminations"] == causes and sum(causes.values()) == 5
        assert all("terminations" not in v for v in summary["variants"])

    def test_singular_quadratic_certifies_without_fstar(self):
        # c has a component in the null space of Q: unbounded below
        problem = problems.QuadraticProblem(np.diag([1.0, 0.0]), [0.0, 1.0])
        result = bench.run_variant(problem, bench.SolverSpec(solver="deal-c"),
                                   bench.RunSpec(max_iter=100))
        assert result.fstar is None and result.ok
        assert result.certificates["descent"]["passed"]
        assert "min_grad_bound" not in result.certificates

    def test_singular_quadratic_with_attained_minimum_gets_fstar(self):
        problem = problems.QuadraticProblem(np.diag([1.0, 0.0]), [1.0, 0.0])
        result = bench.run_variant(problem, bench.SolverSpec(solver="deal-c"),
                                   bench.RunSpec(max_iter=100))
        assert result.fstar == -0.5 and result.ok
        assert result.certificates["min_grad_bound"]["passed"]

    def test_sidecar_c_reproduces_the_displacement_certificate(self, tmp_path,
                                                               capsys):
        out = bench.run_experiment(small_config(tmp_path))
        for stem, step in (("DEAL-C", "alpha"), ("DEAL-A", "alpha_bar")):
            sidecar = json.loads((out / f"{stem}.json").read_text())
            bundle = json.loads((out / f"{stem}.certificates.json").read_text())
            extras = sidecar["extras"]
            assert extras["c"] == extras["c2"] * extras[step]
            rc = cli.main(["certify", "--trace", str(out / f"{stem}.csv"),
                           "--rho", repr(sidecar["rho"]),
                           "--theta", repr(sidecar["theta"]),
                           "--c", repr(extras["c"])])
            assert rc == cli.EXIT_OK
            doc = json.loads(capsys.readouterr().out)
            assert bundle["displacement"]["n_checked"] > 0
            for key in ("passed", "n_checked"):
                assert doc["displacement"][key] == bundle["displacement"][key]



def column_bits(trace):
    """The bytes of the trace's six columns: two traces match in them bit
    for bit, a NaN matching a NaN."""
    return [getattr(trace, name).tobytes() for name in TRACE_COLUMNS]


# each family with each of its solvers; bhippa at order 2, below its matched
# order, so that it runs past a block before its tolerance
LIVE_CASES = [("leastp", "deal-c", {}), ("leastp", "deal-a", {}),
              ("quadratic", "deal-c", {}), ("quadratic", "deal-a", {}),
              ("lasso", "bpga", {}), ("powerabs", "bhippa", {"order": 2.0})]


class TestLiveReevaluation:
    """A run re-evaluated while it proceeds is certified, byte for byte, as
    the same run whose observed iterates are re-evaluated afterwards."""

    @pytest.fixture
    def assert_live_is_observed(self, run_storing, certify_observed, per_point):
        def check(kind, solver, spec_kw, run):
            problem = bench.build_problem(bench.ProblemSpec(kind=kind, m=40, n=8, seed=1))
            result, xs, ctx = run_storing(
                problem, bench.SolverSpec(solver=solver, **spec_kw), run)
            live = ctx["reevaluation"]
            later = certify_observed(result.trace, xs, ctx)
            assert result.certificates["reevaluated"]
            assert (json.dumps(result.certificates, indent=2, default=bench._json_default)
                    == json.dumps(later, indent=2, default=bench._json_default))
            # the per-point oracle reaches the verdicts of the batch one
            pointwise = certify_observed(result.trace, xs, ctx, per_point(problem, result.trace))
            assert verdicts(pointwise) == verdicts(result.certificates)
            checked = bench.reevaluate_trace(result.trace, xs, ctx["rows"])
            assert column_bits(live.result(result.trace)[0]) == column_bits(checked)
            assert live.last is xs[-1]
            return result, 1 + sum(b is not a for a, b in zip(xs, xs[1:]))
        return check

    @pytest.mark.parametrize("kind, solver, spec_kw", LIVE_CASES)
    @pytest.mark.parametrize("distinct", [REEVALUATE_BLOCK - 1, REEVALUATE_BLOCK,
                                          REEVALUATE_BLOCK + 1])
    def test_one_short_of_at_and_one_past_a_block(self, assert_live_is_observed, kind,
                                                  solver, spec_kw, distinct):
        result, seen = assert_live_is_observed(
            kind, solver, spec_kw,
            bench.RunSpec(x0_seed=3, eps=1e-30, max_iter=distinct - 1))
        assert seen == len(result.trace) == distinct
        if kind in ("leastp", "quadratic"):
            assert [c["criterion"] for c in result.certificates["complexity"]["checks"]
                    ] == ["gap", "grad", "iterate"]

    @pytest.mark.parametrize("solver", ["deal-c", "deal-a"])
    def test_a_replayed_fixed_point(self, assert_live_is_observed, solver):
        result, seen = assert_live_is_observed(
            "leastp", solver, {},
            bench.RunSpec(x0_seed=3, eps=1e-30, max_iter=1500))
        assert seen == result.trace.extras["fixed_point_at"] < len(result.trace)

    @pytest.mark.parametrize("kind, solver, beta, measured", [
        ("lasso", "bpga", "auto", False), ("leastp", "deal-c", 0.5, False),
        ("leastp", "deal-a", "auto", True)])
    def test_distances_are_measured_only_for_the_iterate_criterion(
            self, run_storing, kind, solver, beta, measured):
        # the iterate criterion alone reads the distances to xstar, and only a
        # guaranteed run with a tau checks it: lasso's reference has no tau
        # and beta 0.5 makes a least-p run heuristic
        problem = bench.build_problem(bench.ProblemSpec(kind=kind, m=40, n=8, seed=1))
        result, _, ctx = run_storing(problem, bench.SolverSpec(solver=solver, beta=beta),
                                     bench.RunSpec(x0_seed=3))
        distances = ctx["reevaluation"].result(result.trace)[1]
        assert (distances is not None) == measured
        assert result.trace.guaranteed == (beta == "auto")
        if measured:
            assert len(distances) == len(result.trace)
            assert "iterate" in [c["criterion"]
                                 for c in result.certificates["complexity"]["checks"]]

    @pytest.mark.parametrize("kind, solver, spec_kw", LIVE_CASES)
    def test_reevaluation_does_not_perturb_the_run(self, kind, solver, spec_kw):
        # a solve logs the same trace, bit for bit, whether or not a
        # re-evaluation observes its iterates, past a block of them
        problem = bench.build_problem(bench.ProblemSpec(kind=kind, m=40, n=8, seed=1))
        spec = bench.SolverSpec(solver=solver, **spec_kw)
        run = bench.RunSpec(x0_seed=3, eps=1e-30, max_iter=2 * REEVALUATE_BLOCK)
        x0 = np.random.default_rng(run.x0_seed).uniform(-5.0, 5.0, size=problem.n)
        alone = bench._configure_variant(problem, spec, run)[0](x0, None)
        solve, ctx = bench._configure_variant(problem, spec, run)
        reevaluation = Reevaluation(ctx["rows"])
        observed = solve(x0, reevaluation.add)
        assert len(reevaluation.result(observed)[0]) == len(observed) > REEVALUATE_BLOCK
        assert column_bits(observed) == column_bits(alone)
        assert (json.dumps(observed.extras, default=bench._json_default)
                == json.dumps(alone.extras, default=bench._json_default))

    @pytest.mark.parametrize("kind, solver, spec_kw", LIVE_CASES)
    def test_an_infinite_eps_is_refused(self, kind, solver, spec_kw):
        problem = bench.build_problem(bench.ProblemSpec(kind=kind, m=40, n=8, seed=1))
        with pytest.raises(UsageError, match="eps"):
            bench.run_variant(problem, bench.SolverSpec(solver=solver, **spec_kw),
                              bench.RunSpec(eps=float("inf")))


class TestFamilies:
    def test_a_solver_the_family_refuses_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "D"
        rc = cli.main(["run", "--problem", "lasso", "--m", "30", "--n", "4",
                       "--solver", "deal-c", "--out", str(out)])
        assert rc == cli.EXIT_USAGE and not out.exists()
        assert ("solvers[0].solver must be one of ('bpga',) for problem.kind 'lasso'"
                in capsys.readouterr().err)
        # a missing solver or kind is its SolverSpec or ProblemSpec default
        assert bench.validate_config({"problem": {"kind": "lasso"}}) == [
            "solvers[0].solver must be one of ('bpga',) for problem.kind 'lasso'"]
        assert bench.validate_config({"solvers": [{"solver": "bhippa"}]}) == [
            "solvers[0].solver must be one of ('deal-c', 'deal-a') for problem.kind 'leastp'"]
        config = bench.ExperimentConfig.from_dict({"problem": {"kind": "lasso"},
                                                   "solvers": [{"solver": "bpga"}]})
        config.solvers[0].solver = "bhippa"
        config.output.directory = str(out)
        with pytest.raises(UsageError, match=r"must be one of \('bpga',\)"):
            bench.run_experiment(config)
        assert not out.exists()
        lasso = bench.build_problem(config.problem)
        with pytest.raises(UsageError, match=r"one of \('bpga',\) for the lasso family"):
            bench.run_variant(lasso, bench.SolverSpec(solver="deal-c"), bench.RunSpec())

    def test_a_family_registered_in_problems_reaches_every_reader(self, tmp_path,
                                                                monkeypatch, capsys):
        class Toy(problems.QuadraticProblem):
            kind = "toy"
            solvers = ("deal-a",)

            @classmethod
            def generate(cls, seed, m, n, **_):
                return cls(np.diag(np.arange(1.0, n + 1.0)), np.ones(n))

        monkeypatch.setitem(problems.FAMILIES, "toy", Toy)
        assert bench.validate_config({"problem": {"kind": "toy"},
                                      "solvers": [{"solver": "deal-a"}]}) == []
        parser = cli.build_parser()
        assert parser.parse_args(["oracle", "fd-grad", "--problem", "toy",
                                  "--at", "x.json"]).problem == "toy"
        run = ["run", "--problem", "toy", "--n", "4", "--x0-seed", "2"]
        assert cli.main(run + ["--solver", "deal-c", "--out", str(tmp_path / "c")]) == cli.EXIT_USAGE
        assert "one of ('deal-a',) for problem.kind 'toy'" in capsys.readouterr().err
        assert cli.main(run + ["--solver", "deal-a", "--out", str(tmp_path / "a")]) == cli.EXIT_OK
        sidecar = json.loads((tmp_path / "a" / "DEAL-A.json").read_text())
        bundle = json.loads((tmp_path / "a" / "DEAL-A.certificates.json").read_text())
        assert sidecar["problem"]["kind"] == "toy"
        assert sidecar["tau"] == 1.0 / np.sqrt(2.0) and bundle["complexity"]["passed"]

    def test_sidecar_records_the_tau_the_bundle_used(self, tmp_path):
        solvers = [bench.SolverSpec(name="DEAL-C", solver="deal-c"),
                   bench.SolverSpec(name="DEAL-C1", solver="deal-c", beta=0.5)]
        for consistent in (True, False):
            out = bench.run_experiment(small_config(tmp_path / str(consistent), solvers,
                                                    consistent=consistent))
            tau = json.loads((out / "problem.json").read_text())["tau"]
            for stem, used in (("DEAL-C", consistent), ("DEAL-C1", False)):
                sidecar = json.loads((out / f"{stem}.json").read_text())
                bundle = json.loads((out / f"{stem}.certificates.json").read_text())
                assert sidecar["tau"] == (tau if used else None)
                assert ("complexity" in bundle) == used


class TestBHiPPAVariant:
    def test_powerabs_run(self, tmp_path):
        cfg = bench.ExperimentConfig(
            problem=bench.ProblemSpec(kind="powerabs", s=4.0, n=1, m=0),
            solvers=[bench.SolverSpec(name="BHIPPA", solver="bhippa")],
            run=bench.RunSpec(x0_seed=0),
            output=bench.OutputSpec(directory=str(tmp_path / "hp")),
        )
        out = bench.run_experiment(cfg)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ok"]
        certs = json.loads((out / "BHIPPA.certificates.json").read_text())
        assert certs["descent"]["passed"]


class TestCLI:
    def test_run_and_certify_and_analyze(self, tmp_path, capsys):
        out = tmp_path / "cli"
        rc = cli.main([
            "run", "--problem", "leastp", "--m", "40", "--n", "8",
            "--p", "2.0", "--seed", "5", "--solver", "deal-c",
            "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        sidecar = json.loads((out / "DEAL-C.json").read_text())
        # the sidecar records fstar = f(x_ls), not 0.0: flags must agree with it
        rc = cli.main(["certify", "--trace", str(out / "DEAL-C.csv"),
                       "--rho", str(sidecar["rho"]),
                       "--theta", str(sidecar["theta"]),
                       "--fstar", repr(sidecar["fstar"])])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["descent"]["passed"] and doc["min_grad_bound"]["passed"]
        rc = cli.main(["analyze", "--trace", str(out / "DEAL-C.csv"),
                       "--fstar", "0.0",
                       "--rho", str(sidecar["rho"]),
                       "--theta", str(sidecar["theta"]),
                       "--tau", str(sidecar["problem"]["tau"])])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rate"]["regime"] == "linear"
        assert doc["complexity"]["passed"]

    def test_consistent_flag_is_refused_and_inconsistent_reaches_the_problem(
            self, tmp_path, capsys):
        parser = cli.build_parser()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["run", "--consistent"])
        assert exc.value.code == 2
        assert cli.main(["run", "--consistent", "--out", str(tmp_path / "no")]) \
            == cli.EXIT_USAGE
        assert not (tmp_path / "no").exists()
        capsys.readouterr()
        for flags, consistent in (([], True), (["--inconsistent"], False)):
            out = tmp_path / f"run{len(flags)}"
            assert cli.main(["run", "--m", "40", "--n", "8", "--max-iter", "50",
                             "--out", str(out)] + flags) == cli.EXIT_OK
            config = json.loads((out / "config.json").read_text())
            assert config["problem"]["consistent"] is consistent
            assert json.loads((out / "problem.json").read_text())["consistent"] is consistent
        capsys.readouterr()

    def test_run_with_no_flags_builds_the_default_specs(self, tmp_path, monkeypatch,
                                                        capsys):
        built = []

        def run_experiment(config):
            built.append(config)
            (tmp_path / "summary.json").write_text(json.dumps({"ok": True}))
            return tmp_path
        monkeypatch.setattr(bench, "run_experiment", run_experiment)
        assert cli.main(["run"]) == cli.EXIT_OK
        capsys.readouterr()
        config, = built
        assert config.problem == bench.ProblemSpec()
        assert config.run == bench.RunSpec()
        # the variant is named after its solver
        assert config.solvers == [bench.SolverSpec(name=config.solvers[0].name)]

    def test_run_with_no_complexity_verdict_exits_ok(self, tmp_path, capsys):
        # 50 iterations reach none of the three criteria: no verdict, no failure
        out = tmp_path / "short"
        rc = cli.main(["run", "--problem", "leastp", "--m", "40", "--n", "8",
                       "--solver", "deal-c", "--max-iter", "50", "--out", str(out)])
        assert rc == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["ok"]
        certs = json.loads((out / "DEAL-C.certificates.json").read_text())
        assert certs["complexity"]["passed"] is None
        assert all(c["passed"] is None for c in certs["complexity"]["checks"])

    def test_certify_detects_violation(self, tmp_path, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text("k,f,grad_norm,step,inner_count,displacement\n"
                         "0,1.0,1.0,0.1,0,0.05\n1,0.9,0.5,0.1,0,\n")
        rc = cli.main(["certify", "--trace", str(trace),
                       "--rho", "0.5", "--theta", "2.0"])
        assert rc == cli.EXIT_CERTIFICATE
        capsys.readouterr()

    def test_envelope_verb(self, tmp_path, capsys):
        point = tmp_path / "pt.json"
        point.write_text("[2.0]")
        rc = cli.main(["envelope", "--g", "l1", "--p", "2.0", "--gamma", "1.0",
                       "--at", str(point)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(1.5)
        assert doc["gradient"] == pytest.approx([1.0])

    def test_envelope_rejects_a_nonfinite_point(self, tmp_path, capsys):
        point = tmp_path / "pt.json"
        point.write_text("[1.0, NaN]")
        rc = cli.main(["envelope", "--g", "l1", "--at", str(point)])
        assert rc == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    def test_oracle_fd_grad_rejects_a_wrong_length_point(self, tmp_path, capsys):
        point = tmp_path / "x.json"
        point.write_text("[0.5, 0.5]")
        rc = cli.main(["oracle", "fd-grad", "--n", "5", "--at", str(point)])
        assert rc == cli.EXIT_USAGE
        assert "dimension 2, expected 5" in capsys.readouterr().err

    def test_oracle_spectral(self, tmp_path, capsys):
        mat = tmp_path / "m.json"
        mat.write_text(json.dumps(np.eye(3).tolist()))
        rc = cli.main(["oracle", "spectral", "--matrix", str(mat)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["opnorm"] == pytest.approx(1.0)

    def test_oracle_spectral_rounds_outward_next_to_iteration(self, tmp_path,
                                                              capsys):
        mat = tmp_path / "m.json"
        mat.write_text("[[1, 0], [0, 2], [0, 0]]")
        rc = cli.main(["oracle", "spectral", "--matrix", str(mat)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert 2.0 <= doc["opnorm"] <= 2.0 + 1e-14
        assert 1.0 - 1e-14 <= doc["sigma_min"] <= 1.0
        assert doc["iterative"]["opnorm"] == pytest.approx(2.0)
        assert doc["iterative"]["sigma_min"] == pytest.approx(1.0)
        assert cli.main(["oracle", "spectral", "--matrix", str(mat),
                         "--method", "svd"]) == cli.EXIT_USAGE

    def test_oracle_fd_grad(self, tmp_path, capsys):
        point = tmp_path / "x.json"
        point.write_text(json.dumps([0.5] * 5))
        rc = cli.main(["oracle", "fd-grad", "--problem", "leastp", "--m", "20",
                       "--n", "5", "--p", "1.5", "--seed", "2",
                       "--at", str(point)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        fd = np.array(doc["finite_diff"])
        cf = np.array(doc["closed_form"])
        assert np.linalg.norm(fd - cf) <= 1e-5 * max(1.0, np.linalg.norm(cf))

    @pytest.mark.parametrize("kind", ["lasso", "quadratic", "powerabs"])
    def test_oracle_fd_grad_of_every_family(self, tmp_path, capsys, kind):
        # powerabs has no smooth objective: its own value and gradient are compared
        point = tmp_path / "x.json"
        point.write_text(json.dumps([0.5, -1.0, 2.0, 0.25, -0.75]))
        assert cli.main(["oracle", "fd-grad", "--problem", kind, "--m", "20",
                         "--n", "5", "--at", str(point)]) == 0
        doc = json.loads(capsys.readouterr().out)
        fd, cf = np.array(doc["finite_diff"]), np.array(doc["closed_form"])
        assert np.linalg.norm(fd - cf) <= 1e-5 * max(1.0, np.linalg.norm(cf))

    def test_run_bhippa_with_order_flag(self, tmp_path, capsys):
        out = tmp_path / "hp"
        rc = cli.main(["run", "--problem", "powerabs", "--s", "4.0", "--n", "1",
                       "--solver", "bhippa", "--order", "auto", "--gamma", "1.0",
                       "--sigma", "0.1", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        sidecar = json.loads((out / "BHIPPA.json").read_text())
        assert sidecar["extras"]["p"] == pytest.approx(4.0)
        assert sidecar["theta"] == pytest.approx(4.0 / 3.0)

    @pytest.mark.parametrize("argv, doc, message", [
        (["envelope", "--at"], ["a", 1], "--at is not an array of numbers"),
        (["oracle", "fd-grad", "--at"], ["a", 1], "--at is not an array of numbers"),
        (["oracle", "spectral", "--matrix"], [[1, 2], [3]], "A is not a matrix of numbers")])
    def test_json_input_that_is_not_numbers_exits_1(self, tmp_path, capsys, argv, doc,
                                                    message):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        assert cli.main(argv + [str(path)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}: ") and captured.err.count("\n") == 1

    def test_usage_exit_codes(self, capsys):
        assert cli.main(["sweep", "--preset", "nope"]) == cli.EXIT_USAGE
        assert cli.main(["--help"]) == cli.EXIT_OK
        capsys.readouterr()

    def test_a_sweep_from_a_runs_own_config_json_writes_the_same_run(self, tmp_path,
                                                                      capsys):
        # the recorded config names no output directory, so --out decides
        # where the second run goes, and the first is left as it was
        first, second = tmp_path / "A" / "sec53", tmp_path / "B" / "sec53"
        assert cli.main(["sweep", "--preset", "sec53", "--out", str(tmp_path / "A")]) == 0
        written = {path: path.stat().st_mtime_ns for path in first.iterdir()}
        inode = first.stat().st_ino
        assert cli.main(["sweep", "--preset", "sec53", "--config",
                         str(first / "config.json"), "--out", str(tmp_path / "B")]) == 0
        capsys.readouterr()
        assert tree_bytes(second) == tree_bytes(first) != {}
        assert first.stat().st_ino == inode
        assert {path: path.stat().st_mtime_ns for path in first.iterdir()} == written

    def test_sweep_sec53_small_override(self, tmp_path, capsys):
        override = tmp_path / "cfg.json"
        override.write_text(json.dumps({
            "problem": {"m": 200, "n": 5},
            "output": {"directory": str(tmp_path / "sweep")},
        }))
        rc = cli.main(["sweep", "--preset", "sec53", "--config", str(override)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ok"]
        assert len(summary["variants"]) == 5


def option(verb, dest):
    """The argparse action of ``deal VERB``'s option ``dest``."""
    verbs, = (action for action in cli.build_parser()._actions
              if isinstance(action, argparse._SubParsersAction))
    found, = (action for action in verbs.choices[verb]._actions if action.dest == dest)
    return found


class TestPresets:
    def test_sweep_offers_exactly_the_presets_and_its_refusal_names_each(self, capsys):
        assert option("sweep", "preset").choices == tuple(bench.PRESETS)
        assert cli.main(["sweep", "--preset", "nope"]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "invalid choice: 'nope'" in err
        assert all(repr(name) in err for name in bench.PRESETS)

    def test_an_unknown_preset_is_refused_naming_every_preset(self):
        with pytest.raises(UsageError, match=re.escape(
                f"unknown preset 'nope'; expected one of {', '.join(bench.PRESETS)}")):
            bench.preset("Nope")

    @pytest.mark.parametrize("name", list(bench.PRESETS))
    def test_each_preset_gives_a_valid_config(self, tmp_path, name):
        # any case names the preset; the seed seeds the problem and the start points
        config = bench.preset(name.upper(), 7, out_dir=str(tmp_path))
        assert bench.validate_config(config.as_dict()) == []
        assert config.problem.seed == config.run.x0_seed == 7
        assert config.output.directory == str(tmp_path / name)
        assert config.as_dict() == bench.preset(name, 7, out_dir=str(tmp_path)).as_dict()

    @pytest.mark.parametrize("name", list(bench.PRESETS))
    def test_editing_a_preset_leaves_the_next_one_as_it_was(self, name):
        first = bench.preset(name)
        expected = first.as_dict()
        first.solvers[0].beta = 0.9
        first.solvers[-1].direction = "bb2"
        first.solvers.append(bench.SolverSpec(name="EXTRA"))
        first.problem.m = 5
        assert bench.preset(name).as_dict() == expected

    def test_run_direction_offers_exactly_the_direction_kinds(self):
        direction = option("run", "direction")
        assert direction.choices == directions.KINDS
        assert direction.default == bench.SolverSpec.direction

    def test_run_direction_is_spelled_as_in_a_config(self, tmp_path, monkeypatch, capsys):
        built = []

        def run_experiment(config):
            built.append(config)
            (tmp_path / "summary.json").write_text(json.dumps({"ok": True}))
            return tmp_path
        monkeypatch.setattr(bench, "run_experiment", run_experiment)
        for kind in directions.KINDS:
            assert cli.main(["run", "--direction", kind]) == cli.EXIT_OK
        assert [config.solvers[0].direction for config in built] == list(directions.KINDS)
        capsys.readouterr()
        # the one spelling of the gradient is the config's
        assert cli.main(["run", "--direction", "grad"]) == cli.EXIT_USAGE
        assert "invalid choice: 'grad'" in capsys.readouterr().err
        assert len(built) == len(directions.KINDS)


def check_verdicts(bundle):
    """{check name: passed} for every entry of a bundle that reached a verdict."""
    return {name: rep["passed"] for name, rep in bundle.items()
            if isinstance(rep, dict) and "passed" in rep}


def certify_args(run_dir, stem):
    """The `deal certify` flags for a persisted trace, from its sidecar."""
    sidecar = json.loads((run_dir / f"{stem}.json").read_text())
    extras = sidecar["extras"]
    args = ["--trace", str(run_dir / f"{stem}.csv"),
            "--rho", repr(sidecar["rho"]), "--theta", repr(sidecar["theta"]),
            "--fstar", repr(sidecar["fstar"]), "--eps", repr(extras["eps"])]
    if "c" in extras:
        args += ["--c", repr(extras["c"])]
    tau = sidecar["problem"].get("tau")
    if tau is not None:
        args += ["--tau", repr(tau)]
    return args


BAD_TRACE = ("k,f,grad_norm,step,inner_count,displacement\n"
             "0,1.0,1.0,0.1,0,0.05\n1,0.9,0.5,0.1,0,\n")


class TestTraceVerbs:
    @pytest.mark.parametrize("solver", ["deal-c", "deal-a"])
    def test_certify_gives_the_bundle_of_a_leastp_run(self, tmp_path, capsys,
                                                      solver):
        out = tmp_path / solver
        assert cli.main(["run", "--m", "40", "--n", "8", "--solver", solver,
                         "--out", str(out)]) == cli.EXIT_OK
        capsys.readouterr()
        stem = solver.upper()
        bundle = json.loads((out / f"{stem}.certificates.json").read_text())
        assert {"complexity", "per_step_ratio", "displacement"} <= bundle.keys()
        rc = cli.main(["certify"] + certify_args(out, stem))
        doc = json.loads(capsys.readouterr().out)
        assert rc == cli.EXIT_OK
        assert check_verdicts(doc) == check_verdicts(bundle)
        assert "reevaluated" not in doc and bundle["reevaluated"]
        assert doc["rate"]["regime"] == bundle["rate"]["regime"]

    def test_certify_reads_the_runs_own_eps(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["run", "--m", "40", "--n", "8", "--eps", "1e-8",
                         "--out", str(out)]) == cli.EXIT_OK
        capsys.readouterr()
        args = certify_args(out, "DEAL-C")
        at = args.index("--eps")
        del args[at:at + 2]
        # unset, --eps is the one of the sidecar next to the trace
        assert cli.main(["certify"] + args) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        bundle = json.loads((out / "DEAL-C.certificates.json").read_text())
        assert doc["complexity"]["eps"] == bundle["complexity"]["eps"] == 1e-8
        # a trace without a sidecar has no tolerance to judge complexity by
        lone = tmp_path / "lone.csv"
        lone.write_bytes((out / "DEAL-C.csv").read_bytes())
        args[args.index("--trace") + 1] = str(lone)
        for verb in ("certify", "analyze"):
            assert cli.main([verb] + args) == cli.EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == "" and "error: --tau needs --eps" in captured.err
        assert cli.main(["certify"] + args + ["--eps", "1e-8"]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["complexity"]["eps"] == 1e-8

    def test_certify_gives_the_bundles_of_sec53(self, tmp_path, capsys):
        out = bench.run_experiment(bench.preset("sec53", 0, out_dir=str(tmp_path)))
        summary = json.loads((out / "summary.json").read_text())
        for variant in summary["variants"]:
            stem = variant["variant"]
            bundle = json.loads((out / f"{stem}.certificates.json").read_text())
            rc = cli.main(["certify"] + certify_args(out, stem))
            doc = json.loads(capsys.readouterr().out)
            assert rc == (cli.EXIT_OK if variant["ok"] else cli.EXIT_CERTIFICATE)
            assert check_verdicts(doc) == check_verdicts(bundle)
            assert {"descent", "min_grad_bound"} <= check_verdicts(doc).keys()

    def test_certify_gives_the_bundles_of_sec51_from_the_trace_alone(self, sec51_run,
                                                                     capsys):
        out, _, _ = sec51_run
        for variant in json.loads((out / "summary.json").read_text())["variants"]:
            stem = variant["variant"]
            bundle = json.loads((out / f"{stem}.certificates.json").read_text())
            rc = cli.main(["certify", "--trace", str(out / f"{stem}.csv")])
            doc = json.loads(capsys.readouterr().out)
            assert rc == (cli.EXIT_OK if variant["ok"] else cli.EXIT_CERTIFICATE)
            assert check_verdicts(doc) == check_verdicts(bundle), stem
            assert doc["guaranteed"] == bundle["guaranteed"]

    def test_certify_takes_every_constant_from_the_sidecar(self, tmp_path, capsys):
        specs = [bench.SolverSpec(name="DEAL-C", solver="deal-c"),
                 bench.SolverSpec(name="DEAL-A", solver="deal-a"),
                 bench.SolverSpec(name="DEAL-A1", solver="deal-a", beta=0.5)]
        out = bench.run_experiment(small_config(tmp_path, solvers=specs))
        for spec in specs:
            bundle = json.loads((out / f"{spec.name}.certificates.json").read_text())
            rc = cli.main(["certify", "--trace", str(out / f"{spec.name}.csv")])
            doc = json.loads(capsys.readouterr().out)
            assert rc == cli.EXIT_OK
            assert check_verdicts(doc) == check_verdicts(bundle)
            assert doc["guaranteed"] == bundle["guaranteed"] == (spec.beta == "auto")
            assert doc["rate"]["regime"] == bundle["rate"]["regime"]
        bundle = json.loads((out / "DEAL-A.certificates.json").read_text())
        assert {"displacement", "min_grad_bound", "complexity",
                "per_step_ratio"} <= check_verdicts(bundle).keys()

    def test_a_flag_that_contradicts_the_sidecar_exits_1(self, tmp_path, capsys):
        specs = [bench.SolverSpec(name="DEAL-A", solver="deal-a"),
                 bench.SolverSpec(name="DEAL-A1", solver="deal-a", beta=0.5)]
        out = bench.run_experiment(small_config(tmp_path, solvers=specs))
        trace = str(out / "DEAL-A.csv")
        sidecar = json.loads((out / "DEAL-A.json").read_text())
        # the flags a sidecar agrees with are accepted
        assert cli.main(["certify"] + certify_args(out, "DEAL-A")) == cli.EXIT_OK
        capsys.readouterr()
        for flag, value in (("--fstar", 0.0), ("--rho", sidecar["rho"] / 2),
                            ("--theta", 2.0), ("--c", sidecar["extras"]["c"] * 2),
                            ("--eps", 1e-8),
                            ("--tau", sidecar["tau"] * 2)):
            args = ["certify", "--trace", trace, flag, repr(value)]
            if flag in ("--rho", "--theta"):
                other = "--theta" if flag == "--rho" else "--rho"
                args += [other, repr(sidecar[other[2:]])]
            assert cli.main(args) == cli.EXIT_USAGE, flag
            captured = capsys.readouterr()
            assert captured.out == "" and "contradicts the sidecar" in captured.err
        # a heuristic run certifies no rho and theta
        heuristic = json.loads((out / "DEAL-A1.json").read_text())
        assert cli.main(["certify", "--trace", str(out / "DEAL-A1.csv"),
                         "--rho", repr(heuristic["rho"]),
                         "--theta", repr(heuristic["theta"])]) == cli.EXIT_USAGE
        assert "heuristic" in capsys.readouterr().err
        # analyze takes its constants from its flags
        assert cli.main(["analyze", "--trace", trace, "--fstar", "0.0"]) == cli.EXIT_OK
        assert not json.loads(capsys.readouterr().out)["guaranteed"]

    def test_analyze_exits_2_on_a_violation(self, tmp_path, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text(BAD_TRACE)
        rc = cli.main(["analyze", "--trace", str(trace), "--fstar", "0.0",
                       "--rho", "0.5", "--theta", "2.0"])
        assert rc == cli.EXIT_CERTIFICATE
        doc = json.loads(capsys.readouterr().out)
        assert doc["descent"]["passed"] is False and "rate" in doc

    def test_a_skipped_complexity_report_reaches_no_verdict(self, tmp_path, capsys):
        # q = 1 - rho/tau^theta = -99 lies outside (0, 1): no criterion is
        # checked, so the report is vacuous, not a pass, and fails no run
        trace = tmp_path / "t.csv"
        trace.write_text("k,f,grad_norm,step,inner_count,displacement\n"
                         "0,1.0,0.5,0.1,0,0.05\n1,0.5,0.3,0.1,0,0.03\n2,0.2,0.1,0.1,0,\n")
        rc = cli.main(["analyze", "--trace", str(trace), "--rho", "1", "--theta", "2",
                       "--tau", "0.1", "--fstar", "0", "--eps", "1e-6"])
        assert rc == cli.EXIT_OK
        complexity = json.loads(capsys.readouterr().out)["complexity"]
        assert complexity["skipped"] is True and complexity["checks"] == []
        assert complexity["passed"] is None

    def test_analyze_without_constants_fits_the_rate_alone(self, tmp_path, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text(BAD_TRACE)
        rc = cli.main(["analyze", "--trace", str(trace), "--fstar", "0.0"])
        assert rc == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert not doc["guaranteed"]
        assert set(doc) == {"guaranteed", "solver", "termination", "rate"}
        assert doc["rate"]["q_theory"] is None
        assert cli.main(["analyze", "--trace", str(trace),
                         "--rho", "0.5"]) == cli.EXIT_USAGE
        assert "--theta" in capsys.readouterr().err

    def test_an_infinite_min_grad_bound_is_counted_vacuous_without_a_warning(
            self, tmp_path, capsys):
        # rho = 2.63e-307: (f_0 - f*) / rho overflows, so every prefix's bound
        # is infinite and checks nothing; the run says so and warns nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["run", "--problem", "lasso", "--m", "30", "--n", "10",
                             "--solver", "bpga", "--sigma", "1e-306", "--max-iter", "20",
                             "--out", str(tmp_path / "run")]) == cli.EXIT_OK
        capsys.readouterr()
        bundle = json.loads((tmp_path / "run" / "BPGA.certificates.json").read_text())
        report = bundle["min_grad_bound"]
        assert report["passed"] is None and report["n_vacuous"] == report["n_checked"] == 21

    def test_tau_or_c_for_a_trace_that_is_not_guaranteed_exits_1(self, tmp_path, capsys):
        # only a guaranteed bundle reads them: given for any other, they would
        # change nothing, and the bundle would read as if they had been used
        trace = tmp_path / "t.csv"
        trace.write_text(BAD_TRACE)
        specs = [bench.SolverSpec(name="DEAL-A1", solver="deal-a", beta=0.5)]
        out = bench.run_experiment(small_config(tmp_path, solvers=specs))
        heuristic = json.loads((out / "DEAL-A1.json").read_text())
        for args in (["analyze", "--trace", str(trace), "--fstar", "0", "--eps", "1e-6",
                      "--tau", "1"],
                     ["analyze", "--trace", str(trace), "--c", "1"],
                     ["certify", "--trace", str(out / "DEAL-A1.csv"), "--tau", "1"],
                     ["certify", "--trace", str(out / "DEAL-A1.csv"),
                      "--c", repr(heuristic["extras"]["c"])]):
            assert cli.main(args) == cli.EXIT_USAGE, args
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert captured.err.startswith(f"error: {args[-2]} needs a guaranteed trace")
        # the sidecar's own c is no flag: certify takes it in silence
        assert cli.main(["certify", "--trace", str(out / "DEAL-A1.csv")]) == cli.EXIT_OK
        assert not json.loads(capsys.readouterr().out)["guaranteed"]

    @pytest.mark.parametrize("verb", ["certify", "analyze"])
    def test_a_repeated_k_is_a_data_error(self, tmp_path, capsys, verb):
        trace = tmp_path / "dup.csv"
        trace.write_text("k,f,grad_norm,step,inner_count,displacement\n"
                         "0,1.0,1.0,0.1,0,0.05\n0,0.5,0.5,0.1,0,\n")
        rc = cli.main([verb, "--trace", str(trace), "--rho", "0.5", "--theta", "2.0"])
        assert rc == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "strictly increasing" in captured.err

    def test_a_malformed_row_is_a_data_error(self, tmp_path, capsys):
        trace = tmp_path / "text.csv"
        trace.write_text("k,f,grad_norm,step,inner_count,displacement\n"
                         "0,one,1.0,0.1,0,0.05\n")
        rc = cli.main(["certify", "--trace", str(trace), "--rho", "0.5",
                       "--theta", "2.0"])
        assert rc == cli.EXIT_USAGE
        assert "malformed trace row" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--rel-tol", "--tail-fraction", "--vartheta"])
    def test_dropped_flags_are_refused(self, tmp_path, capsys, flag):
        trace = tmp_path / "bad.csv"
        trace.write_text(BAD_TRACE)
        assert cli.main(["analyze", "--trace", str(trace), "--fstar", "0.0",
                         flag, "0.5"]) == cli.EXIT_USAGE
        capsys.readouterr()


class TestRunDirectoryInputs:
    def test_series_holds_only_the_summarys_variants(self, tmp_path, capsys):
        out = tmp_path / "D"
        for solver in ("deal-c", "deal-a"):
            assert cli.main(["run", "--m", "40", "--n", "8", "--solver", solver,
                             "--max-iter", "20", "--out", str(out)]) == cli.EXIT_OK
        capsys.readouterr()
        # the second run replaced the first one's directory whole
        assert not list(out.glob("DEAL-C.*"))
        assert [path.name for path in tmp_path.iterdir()] == ["D"]
        lines = (out / "series.csv").read_text().splitlines()
        assert {line.split(",")[0] for line in lines[1:]} == {"DEAL-A"}
        assert len(lines) == len((out / "DEAL-A.csv").read_text().splitlines())

    @staticmethod
    def files(directory):
        """Every file under ``directory`` and its bytes, or None if absent."""
        if not directory.exists():
            return None
        return {path.relative_to(directory): path.read_bytes()
                for path in directory.rglob("*") if path.is_file()}

    @pytest.mark.parametrize("previous", [False, True])
    @pytest.mark.parametrize("raised", [RuntimeError, KeyboardInterrupt])
    def test_a_failed_run_leaves_the_directory_as_it_was(self, tmp_path, monkeypatch,
                                                         previous, raised):
        # an exception while the second variant is persisted, or an interrupt
        # while it runs: the run directory is absent or the previous run's,
        # byte for byte, and no staging directory is left beside it
        cfg = small_config(tmp_path)
        cfg.run.max_iter = 20
        out = tmp_path / "out"
        if previous:
            cfg.solvers[0].name = "OLD"
            bench.run_experiment(cfg)
            cfg.solvers[0].name = "DEAL-C"
        before = self.files(out)
        target = "_persist_variant" if raised is RuntimeError else "run_variant"
        original, calls = getattr(bench, target), []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise raised("mid-sweep")
            return original(*args, **kwargs)
        monkeypatch.setattr(bench, target, failing)
        with pytest.raises(raised):
            bench.run_experiment(cfg)
        assert len(calls) == 2
        assert self.files(out) == before
        assert [path.name for path in tmp_path.iterdir()] == (["out"] if previous else [])

    def test_a_directory_that_is_no_run_directory_is_refused(self, tmp_path, capsys):
        out = tmp_path / "notes"
        out.mkdir()
        (out / "todo.txt").write_text("keep me\n")
        assert cli.main(["run", "--m", "40", "--n", "8", "--max-iter", "20",
                         "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: invalid experiment config: output.directory")
        assert len(err.splitlines()) == 1 and "summary.json" in err
        assert self.files(out) == {Path("todo.txt"): b"keep me\n"}
        assert [path.name for path in tmp_path.iterdir()] == ["notes"]

    @pytest.mark.parametrize("given", [".", "..", "../work"])
    def test_a_directory_that_holds_the_working_directory_is_refused(
            self, tmp_path, monkeypatch, capsys, given):
        # a run replaces its directory whole, which would delete the working
        # directory of the process, even an empty one
        (tmp_path / "work").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        assert cli.main(["run", "--m", "40", "--n", "8", "--max-iter", "20",
                         "--out", given]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == (f"error: invalid experiment config: output.directory {given!r} holds "
                       "the working directory, which a run cannot replace\n")
        assert [path.name for path in tmp_path.iterdir()] == ["work"]
        assert not any((tmp_path / "work").iterdir())

    def test_a_directory_filled_during_the_run_is_kept(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path)
        cfg.run.max_iter = 20
        out = tmp_path / "out"
        original = bench._persist_variant

        def persist(*args, **kwargs):
            out.mkdir(exist_ok=True)
            (out / "todo.txt").write_text("keep me\n")
            return original(*args, **kwargs)
        monkeypatch.setattr(bench, "_persist_variant", persist)
        with pytest.raises(UsageError, match="neither empty nor a run directory"):
            bench.run_experiment(cfg)
        assert self.files(out) == {Path("todo.txt"): b"keep me\n"}
        assert [path.name for path in tmp_path.iterdir()] == ["out"]

    def test_an_empty_directory_takes_the_run(self, tmp_path):
        cfg = small_config(tmp_path)
        cfg.run.max_iter = 20
        (tmp_path / "out").mkdir()
        out = bench.run_experiment(cfg)
        assert (out / "summary.json").is_file()
        assert [path.name for path in tmp_path.iterdir()] == ["out"]

    def test_series_of_repetitions_in_file_name_order(self, tmp_path):
        cfg = small_config(tmp_path, solvers=[
            bench.SolverSpec(name="B", solver="deal-c"),
            bench.SolverSpec(name="A-B", solver="deal-c")])
        cfg.run.max_iter = 3
        cfg.run.repetitions = 2
        out = bench.run_experiment(cfg)
        lines = (out / "series.csv").read_text().splitlines()[1:]
        order = [line.split(",")[0] for line in lines if line.split(",")[1] == "0"]
        assert order == ["A-B_rep0", "A-B_rep1", "B_rep0", "B_rep1"]

    def test_emit_plot_data_rewrites_the_series_of_the_run(self, tmp_path, monkeypatch):
        # run_experiment writes series.csv from the traces it holds, without
        # reading one back; emit_plot_data, handed the series of the traces
        # the run directory holds, writes the same bytes
        cfg = small_config(tmp_path, solvers=[
            bench.SolverSpec(name="B", solver="deal-c"),
            bench.SolverSpec(name="A-B", solver="deal-a"),
            bench.SolverSpec(name="C3", solver="deal-c", beta=-0.2)])
        cfg.run.max_iter = 400
        cfg.run.repetitions = 2

        def refused(*args, **kwargs):
            raise AssertionError("a trace was read back")
        with monkeypatch.context() as m:
            m.setattr(bench.IterateTrace, "from_csv", refused)
            out = bench.run_experiment(cfg)
        written = (out / "series.csv").read_bytes()
        assert len(written.splitlines()) > 100
        (out / "series.csv").unlink()
        series = {}
        for path in out.glob("*_rep?.csv"):
            trace = bench.IterateTrace.from_csv(path)
            meta = json.loads(path.with_suffix(".json").read_text())
            series[path.stem] = (meta["fstar"], trace.k, trace.f, trace.grad_norm)
        assert len(series) == 6
        assert bench.emit_plot_data(out, series) == out / "series.csv"
        assert (out / "series.csv").read_bytes() == written

    def test_sec51_writes_the_bytes_of_csv_writer(self, sec51_run):
        out, traces, _ = sec51_run
        assert len(traces) == 8
        for name, trace in traces.items():
            rows = io.StringIO(newline="")
            writer = csv.writer(rows)
            writer.writerow(TRACE_COLUMNS)
            for k, f, g, step, inner, disp in zip(trace.k, trace.f, trace.grad_norm,
                                                  trace.step, trace.inner_count,
                                                  trace.displacement):
                writer.writerow([k, _fmt(f), _fmt(g), _fmt(step), inner, _fmt(disp)])
            assert (out / f"{name}.csv").read_bytes() == rows.getvalue().encode(), name
        # series.csv: one row per record, every field formatted on its own
        lines = ["variant,k,f_gap,grad_norm\n"]
        for name in sorted(traces, key=lambda name: name + ".csv"):
            f, g = traces[name].f_values(), traces[name].grad_norms()
            fstar = json.loads((out / f"{name}.json").read_text())["fstar"]
            lines += [f"{name},{k},{gap!r},{gn!r}\n" for k, gap, gn in zip(
                traces[name].k, (f - fstar).tolist(), g.tolist())]
        assert (out / "series.csv").read_text() == "".join(lines)

    def test_series_formats_each_row_that_changes(self, tmp_path):
        # rows that repeat one column and change the other, -0.0 after 0.0
        # (equal, other bits), and repeated NaN and inf
        f = np.array([1.0, 1.0, 1.0, 0.5, 0.5, 0.0, -0.0, np.nan, np.nan, 2.0])
        g = np.array([2.0, 2.0, 3.0, 3.0, 3.0, 1.0, 1.0, np.inf, np.inf, np.inf])
        k = np.arange(len(f), dtype=np.int64)
        bench.emit_plot_data(tmp_path, {"V": (0.25, k, f, g)})
        rows = "".join(f"V,{i},{gap!r},{gn!r}\n" for i, gap, gn in zip(
            k.tolist(), (f - 0.25).tolist(), g.tolist()))
        assert (tmp_path / "series.csv").read_text() == "variant,k,f_gap,grad_norm\n" + rows

    @pytest.mark.parametrize("section", ["problem", "run", "output"])
    def test_non_object_section_is_reported(self, section):
        assert bench.validate_config({section: []}) == [f"{section} must be an object"]

    def test_sweep_config_with_a_non_object_section_exits_1(self, tmp_path, capsys):
        override = tmp_path / "f.json"
        override.write_text(json.dumps({"problem": []}))
        rc = cli.main(["sweep", "--preset", "sec53", "--config", str(override),
                       "--out", str(tmp_path / "runs")])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: invalid experiment config: ")
        assert "problem must be an object" in err

    @pytest.mark.parametrize("text", ["[]", "{bad"])
    def test_sweep_config_that_is_no_object_exits_1(self, tmp_path, capsys, text):
        override = tmp_path / "f.json"
        override.write_text(text)
        rc = cli.main(["sweep", "--preset", "sec53", "--config", str(override),
                       "--out", str(tmp_path / "runs")])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "runs").exists()

    @staticmethod
    def assert_refused(tmp_path, capsys, argv, message):
        """``deal ARGV --out RUNS`` exits 1 with the one error line
        ``message`` and writes no run directory, nor a file beside it."""
        rc = cli.main(argv + ["--out", str(tmp_path / "runs")])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert captured.err == f"error: invalid experiment config: {message}\n"
        assert captured.out == ""
        assert {path.name for path in tmp_path.iterdir()} <= {"f.json"}

    @staticmethod
    def sweep_with(tmp_path, doc):
        override = tmp_path / "f.json"
        override.write_text(json.dumps(doc))
        return ["sweep", "--preset", "sec53", "--config", str(override)]

    @pytest.mark.parametrize("doc, message", [
        ({"run": {"eps": "x"}}, "run.eps must be a number, got 'x'"),
        ({"run": {"x0_seed": 1.5}}, "run.x0_seed must be an integer, got 1.5"),
        ({"problem": {"m": "10"}}, "problem.m must be an integer, got '10'"),
        ({"solvers": [{"solver": "bpga", "beta": "abc"}]},
         "solvers[0].beta must be a number or 'auto', got 'abc'")])
    def test_a_sweep_config_value_of_the_wrong_type_exits_1(self, tmp_path, capsys,
                                                            doc, message):
        self.assert_refused(tmp_path, capsys, self.sweep_with(tmp_path, doc), message)

    @pytest.mark.parametrize("flag", ["beta", "order"])
    def test_a_run_flag_that_is_neither_a_number_nor_auto_exits_1(self, tmp_path,
                                                                  capsys, flag):
        self.assert_refused(
            tmp_path, capsys, ["run", "--problem", "leastp", "--m", "40", "--n", "8",
                               f"--{flag}", "abc"],
            f"solvers[0].{flag} must be a number or 'auto', got 'abc'")

    def test_fewer_than_one_repetition_exits_1(self, tmp_path, capsys):
        self.assert_refused(tmp_path, capsys, ["run", "--problem", "leastp", "--m", "40",
                                               "--n", "8", "--repetitions", "0"],
                            "run.repetitions must be at least 1, got 0")
        self.assert_refused(tmp_path, capsys,
                            self.sweep_with(tmp_path, {"run": {"repetitions": -1}}),
                            "run.repetitions must be at least 1, got -1")

    @pytest.mark.parametrize("flag, value, message", [
        ("beta", "nan", "solvers[0].beta must be finite, got nan"),
        ("beta", "-inf", "solvers[0].beta must be finite, got -inf"),
        ("order", "inf", "solvers[0].order must be finite, got inf"),
        ("eps", "inf", "run.eps must be finite, got inf"),
        ("sigma", "nan", "solvers[0].sigma must be finite, got nan"),
        ("p", "nan", "problem.p must be finite, got nan")])
    def test_a_run_flag_that_is_not_finite_exits_1(self, tmp_path, capsys, flag, value,
                                                   message):
        self.assert_refused(
            tmp_path, capsys, ["run", "--problem", "leastp", "--m", "40", "--n", "8",
                               f"--{flag}={value}"], message)

    @pytest.mark.parametrize("argv, doc, message", [
        (["run", "--x0-seed", "-1"], None, "run.x0_seed must be at least 0, got -1"),
        (["run", "--seed", "-1"], None, "problem.seed must be at least 0, got -1"),
        (["sweep", "--preset", "sec53", "--seed", "-1"], None,
         "problem.seed must be at least 0, got -1; run.x0_seed must be at least 0, got -1"),
        (None, {"run": {"x0_seed": -1}}, "run.x0_seed must be at least 0, got -1"),
        (None, {"problem": {"seed": -2}}, "problem.seed must be at least 0, got -2")])
    def test_a_negative_seed_exits_1(self, tmp_path, capsys, argv, doc, message):
        # numpy draws from no negative seed: the config refuses it before the
        # problem is drawn
        if argv and argv[0] == "run":
            argv = argv + ["--problem", "leastp", "--m", "40", "--n", "8"]
        self.assert_refused(tmp_path, capsys, argv or self.sweep_with(tmp_path, doc),
                            message)

    def test_run_variant_refuses_a_negative_start_seed(self):
        problem = bench.build_problem(bench.ProblemSpec(m=40, n=8))
        with pytest.raises(UsageError, match="^run.x0_seed must be >= 0, got -1$"):
            bench.run_variant(problem, bench.SolverSpec(), bench.RunSpec(x0_seed=-1))

    def test_an_integer_too_large_for_a_float_is_a_valid_seed(self, tmp_path, capsys):
        # only floats are tested for finiteness: an int of 400 digits has no
        # float, and the seeds take any integer from 0 up
        huge = "9" * 400
        rc = cli.main(["run", "--problem", "leastp", "--m", "40", "--n", "8", "--seed", huge,
                       "--x0-seed", huge, "--out", str(tmp_path / "runs")])
        assert rc == 0 and capsys.readouterr().err == ""
        assert json.loads((tmp_path / "runs" / "config.json").read_text())["run"]["x0_seed"] \
            == int(huge)

    def test_a_sweep_config_value_that_is_not_finite_exits_1(self, tmp_path, capsys):
        # JSON as Python writes and reads it spells NaN and the infinities
        self.assert_refused(
            tmp_path, capsys,
            self.sweep_with(tmp_path, {"run": {"eps": float("inf")},
                                       "solvers": [{"solver": "bpga", "gamma": float("nan")}]}),
            "run.eps must be finite, got inf; solvers[0].gamma must be finite, got nan")

    @pytest.mark.parametrize("argv, message", [
        (["--problem", "leastp", "--m", "40", "--n", "8", "--eps", "-1"], "eps must be positive"),
        (["--problem", "leastp", "--m", "40", "--n", "8", "--beta", "-3"],
         "beta must exceed -1, got -3.0"),
        (["--problem", "leastp", "--m", "40", "--n", "8", "--solver", "deal-a", "--eta", "2"],
         "eta must lie in (0, 1), got 2.0"),
        (["--problem", "leastp", "--m", "5", "--n", "8"],
         "need m >= n >= 1 for data-driven families"),
        (["--problem", "powerabs", "--n", "-3", "--s", "4", "--solver", "bhippa"],
         "n must be >= 1, got -3"),
        (["--problem", "powerabs", "--n", "0", "--s", "4", "--solver", "bhippa"],
         "n must be >= 1, got 0"),
        (["--problem", "quadratic", "--m", "3", "--n", "0", "--solver", "deal-c"],
         "n must be >= 1, got 0"),
        (["--problem", "quadratic", "--m", "3", "--n", "-1", "--solver", "deal-c"],
         "n must be >= 1, got -1"),
        # 1 - 1/s rounds to 1: the exponent is refused, whatever the order
        (["--problem", "powerabs", "--n", "10", "--s", "1e17", "--solver", "bhippa"],
         "vartheta must lie in (0, 1), got 1.0"),
        (["--problem", "powerabs", "--n", "10", "--s", "1e17", "--solver", "bhippa",
          "--order", "2"], "vartheta must lie in (0, 1), got 1.0"),
        (["--problem", "lasso", "--m", "30", "--n", "4", "--solver", "bpga", "--gamma", "100"],
         "gamma must lie in (0, 1/L)"),
        (["--problem", "lasso", "--m", "30", "--n", "4", "--solver", "bpga", "--sigma", "1"],
         "sigma must lie in (0, "),
        (["--problem", "powerabs", "--n", "10", "--solver", "bhippa", "--sigma", "5"],
         "sigma must lie in (0, 0.25) for order 4.0"),
        (["--problem", "powerabs", "--n", "10", "--solver", "bhippa", "--order", "0.5"],
         "order p must exceed 1")])
    def test_an_out_of_range_value_exits_1_before_anything_is_written(
            self, tmp_path, capsys, argv, message):
        # the problem is built and every variant configured before the run
        # directory is created
        rc = cli.main(["run"] + argv + ["--out", str(tmp_path / "runs")])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "runs").exists()

    def test_a_later_variant_out_of_range_leaves_nothing(self, tmp_path):
        config = small_config(tmp_path)
        config.solvers.append(bench.SolverSpec(name="BAD", solver="deal-a", sigma=2.0))
        with pytest.raises(UsageError, match="sigma must lie in"):
            bench.run_experiment(config)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("solvers", [{}, {"solver": "bpga"}, "bpga"])
    def test_a_sweep_config_whose_solvers_is_no_list_exits_1(self, tmp_path, capsys,
                                                             solvers):
        self.assert_refused(tmp_path, capsys,
                            self.sweep_with(tmp_path, {"solvers": solvers}),
                            "solvers must be a list")

    @pytest.mark.parametrize("doc, message", [
        ({"solvers": []}, "solvers must list at least one solver"),
        ({"solvers": [{"name": "V", "solver": "bpga"}, {"name": "V", "solver": "bpga"}]},
         "solvers[1].name 'V' would overwrite V.csv, a file of the run directory or of "
         "an earlier solver"),
        ({"solvers": [{"name": "V", "solver": "bpga"}, {"name": "V", "solver": "bpga"}],
          "run": {"repetitions": 2}},
         "solvers[1].name 'V' would overwrite V_rep0.csv, a file of the run directory or "
         "of an earlier solver"),
        ({"solvers": [{"name": "V", "solver": "bpga"},
                      {"name": "V.certificates", "solver": "bpga"}]},
         "solvers[1].name 'V.certificates' would overwrite V.certificates.json, a file of "
         "the run directory or of an earlier solver"),
        ({"solvers": [{"name": "summary", "solver": "bpga"}]},
         "solvers[0].name 'summary' would overwrite summary.json, a file of the run "
         "directory or of an earlier solver"),
        *(({"solvers": [{"name": name, "solver": "bpga"}]},
           f"solvers[0].name must be a plain file name, got {name!r}")
          for name in ("x/y", "../escaped", "../../escaped", "", ".", "..", "a\0b",
                       "\ud800"))])
    def test_solvers_that_share_a_file_or_lack_a_plain_name_exit_1(self, tmp_path, capsys,
                                                                    doc, message):
        self.assert_refused(tmp_path, capsys, self.sweep_with(tmp_path, doc), message)

    def test_a_solver_name_longer_than_the_file_system_allows_exits_1(self, tmp_path,
                                                                       capsys):
        # A * 300 gives A * 300 + ".certificates.json", 318 bytes
        limit = os.pathconf(tmp_path, "PC_NAME_MAX")
        assert limit < 318
        self.assert_refused(
            tmp_path, capsys,
            self.sweep_with(tmp_path, {"solvers": [{"name": "A" * 300, "solver": "bpga"}]}),
            f"solvers[0].name gives a file name of 318 bytes; the file system of "
            f"output.directory allows {limit}")

    @pytest.mark.parametrize("repetitions, suffix", [(1, ""), (2, "_rep1"), (11, "_rep10")])
    def test_the_longest_file_name_the_file_system_allows_is_accepted(self, tmp_path,
                                                                      repetitions, suffix):
        # the limit is the nearest existing ancestor's; the last repetition's
        # certificates are a variant's longest file name
        limit = os.pathconf(tmp_path, "PC_NAME_MAX")
        longest = limit - len(suffix + ".certificates.json")

        def errors(name):
            return bench.validate_config({
                "problem": {"kind": "lasso"}, "run": {"repetitions": repetitions},
                "solvers": [{"name": name, "solver": "bpga"}],
                "output": {"directory": str(tmp_path / "not" / "made")}})
        assert errors("é" * (longest // 2) + "A" * (longest % 2)) == []
        assert errors("é" * (longest // 2) + "A" * (longest % 2 + 1)) == [
            f"solvers[0].name gives a file name of {limit + 1} bytes; the file system of "
            f"output.directory allows {limit}"]

    def test_run_experiment_refuses_a_long_name_before_writing(self, tmp_path):
        config = small_config(tmp_path, solvers=[bench.SolverSpec(name="A" * 300)])
        with pytest.raises(UsageError, match="solvers.0..name gives a file name of 318 bytes"):
            bench.run_experiment(config)
        assert [path.name for path in tmp_path.iterdir()] == []

    @pytest.mark.parametrize("name", ["x/y", "../escaped"])
    def test_run_experiment_refuses_a_name_before_writing(self, tmp_path, name):
        config = small_config(tmp_path, solvers=[bench.SolverSpec(name=name)])
        with pytest.raises(UsageError, match="solvers.0..name must be a plain file name"):
            bench.run_experiment(config)
        assert [path.name for path in tmp_path.iterdir()] == []

    @pytest.mark.parametrize("argv", [
        ["certify", "--trace", "missing.csv", "--rho", "0.5", "--theta", "2.0"],
        ["sweep", "--preset", "sec53", "--config", "missing.json"],
        ["envelope", "--at", "missing.json"]])
    def test_a_missing_input_file_exits_1(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing." in err


class TestDirectionFallbacks:
    @pytest.mark.parametrize("solver, kind", [("deal-c", "leastp"), ("deal-a", "leastp"),
                                              ("bpga", "lasso"), ("bhippa", "powerabs")])
    def test_sidecar_records_the_rules_fallbacks(self, tmp_path, monkeypatch, solver, kind):
        # BB1 has no previous pair at k=0, so its rule falls back at least once.
        # run_experiment builds each variant's rule once to check its range
        # before it writes anything, and again for the run
        rules, real = [], bench.DirectionRule

        def recorded(*args, **kwargs):
            rules.append(real(*args, **kwargs))
            return rules[-1]
        monkeypatch.setattr(bench, "DirectionRule", recorded)
        out = bench.run_experiment(small_config(tmp_path, solvers=[
            bench.SolverSpec(name="BB1", solver=solver, direction="bb1")], kind=kind))
        checked, rule = rules
        assert checked.fallback_count == 0
        extras = json.loads((out / "BB1.json").read_text())["extras"]
        assert extras["direction_fallbacks"] == rule.fallback_count > 0
        # the boosted solvers keep their line-search count beside it
        assert ("fallbacks" in extras) == (solver in ("bpga", "bhippa"))

    def test_sec51_gradient_variants_record_none(self, tmp_path):
        cfg = bench.preset("sec51", 0, out_dir=str(tmp_path))
        cfg.run.max_iter = 30
        out = bench.run_experiment(cfg)
        for spec in cfg.solvers:
            assert spec.direction == "gradient"
            extras = json.loads((out / f"{spec.name}.json").read_text())["extras"]
            assert extras["direction_fallbacks"] == 0, spec.name
