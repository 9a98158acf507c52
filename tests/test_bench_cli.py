import json
import warnings
from collections import Counter

import numpy as np
import pytest

from dealopt import bench, cli, problems
from dealopt.core import REEVALUATE_BLOCK, UsageError


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
            assert certs["min_grad_bound"]["passed"]
            assert certs["complexity"]["passed"]
            assert certs["per_step_ratio"]["passed"]
            sidecar = json.loads((out / f"{name}.json").read_text())
            assert sidecar["fstar"] == pytest.approx(0.0, abs=1e-18)

    def test_determinism_byte_identical(self, tmp_path):
        out1 = bench.run_experiment(small_config(tmp_path / "a"))
        out2 = bench.run_experiment(small_config(tmp_path / "b"))
        for name in ("DEAL-C.csv", "DEAL-A.csv", "series.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

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

    def test_emit_plot_data_requires_traces(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(UsageError):
            bench.emit_plot_data(tmp_path / "empty")

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

    def test_leastp_reevaluation_makes_one_fused_call_per_record(self, monkeypatch):
        # each distinct stored iterate is re-evaluated once, through one fused
        # batch call per block of REEVALUATE_BLOCK distinct iterates
        problem = bench.build_problem(bench.ProblemSpec(kind="leastp", m=40, n=8, seed=1))
        calls = Counter()
        rows = []
        reevaluating = [False]
        for name in ("value", "grad", "value_grad", "value_grad_rows"):
            def counted(x, _real=getattr(problem, name), _name=name):
                if reevaluating[0]:
                    calls[_name] += 1
                    if _name == "value_grad_rows":
                        rows.append(len(x))
                return _real(x)
            monkeypatch.setattr(problem, name, counted)
        real_reevaluate = bench.reevaluate_trace

        def reevaluate(*args):
            reevaluating[0] = True
            try:
                return real_reevaluate(*args)
            finally:
                reevaluating[0] = False
        monkeypatch.setattr(bench, "reevaluate_trace", reevaluate)
        for solver in ("deal-c", "deal-a"):
            calls.clear()
            rows.clear()
            result = bench.run_variant(problem, bench.SolverSpec(solver=solver),
                                       bench.RunSpec(max_iter=1500, x0_seed=3,
                                                     eps=1e-30))
            assert result.certificates["reevaluated"]
            records = result.trace.records
            distinct = 1 + sum(b.x is not a.x for a, b in zip(records, records[1:]))
            assert distinct < len(records)      # a replayed fixed-point tail
            assert calls == {"value_grad_rows": -(-distinct // REEVALUATE_BLOCK)}
            assert calls["value_grad_rows"] > 1
            assert sum(rows) == distinct

    @pytest.mark.parametrize("solver", ["deal-c", "deal-a"])
    @pytest.mark.parametrize("kind, run", [
        pytest.param("leastp", dict(max_iter=1500, eps=1e-30), id="replayed-tail"),
        pytest.param("leastp", dict(max_iter=100), id="one-block"),
        pytest.param("leastp", dict(eps=1e9), id="one-record"),
        pytest.param("quadratic", dict(max_iter=1500, eps=1e-30), id="quadratic"),
    ])
    def test_batch_reevaluation_keeps_every_verdict(self, monkeypatch, solver,
                                                    kind, run):
        problem = bench.build_problem(bench.ProblemSpec(kind=kind, m=40, n=8, seed=1))
        real_certify = bench.certify_run
        seen = []

        def certify(trace, ctx):
            seen.append((trace, ctx))
            return real_certify(trace, ctx)
        monkeypatch.setattr(bench, "certify_run", certify)
        bench.run_variant(problem, bench.SolverSpec(solver=solver),
                          bench.RunSpec(x0_seed=3, **run))
        (trace, ctx), = seen
        assert "rows" in ctx
        batched = real_certify(trace, ctx)
        per_point = real_certify(trace, {k: v for k, v in ctx.items() if k != "rows"})
        assert batched["reevaluated"] and "descent" in batched
        assert verdicts(batched) == verdicts(per_point)

    @pytest.mark.parametrize("config", [
        *(pytest.param(bench.preset("sec53", seed), id=str(seed)) for seed in range(5)),
        *(pytest.param(bhippa_config(100, seed), id=f"bhippa-n100-{seed}") for seed in (7, 8)),
    ])
    def test_bpga_batch_reevaluation_keeps_every_verdict(self, monkeypatch, config):
        problem = bench.build_problem(config.problem)
        real_certify = bench.certify_run
        seen = []

        def certify(trace, ctx):
            seen.append((trace, ctx))
            return real_certify(trace, ctx)
        monkeypatch.setattr(bench, "certify_run", certify)
        for spec in config.solvers:
            bench.run_variant(problem, spec, config.run)
        assert len(seen) == len(config.solvers)
        for trace, ctx in seen:
            assert "rows" in ctx
            batched = real_certify(trace, ctx)
            per_point = real_certify(trace, {k: v for k, v in ctx.items() if k != "rows"})
            assert batched["reevaluated"] and "descent" in batched
            assert verdicts(batched) == verdicts(per_point)

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
        rc = cli.main(["certify", "--trace", str(out / "DEAL-C.csv"),
                       "--rho", str(sidecar["rho"]),
                       "--theta", str(sidecar["theta"]),
                       "--fstar", "0.0"])
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

    def test_usage_exit_codes(self, capsys):
        assert cli.main(["sweep", "--preset", "nope"]) == cli.EXIT_USAGE
        assert cli.main(["--help"]) == cli.EXIT_OK
        capsys.readouterr()

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

    def test_analyze_exits_2_on_a_violation(self, tmp_path, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text(BAD_TRACE)
        rc = cli.main(["analyze", "--trace", str(trace), "--fstar", "0.0",
                       "--rho", "0.5", "--theta", "2.0"])
        assert rc == cli.EXIT_CERTIFICATE
        doc = json.loads(capsys.readouterr().out)
        assert doc["descent"]["passed"] is False and "rate" in doc

    def test_analyze_without_constants_fits_the_rate_alone(self, tmp_path, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text(BAD_TRACE)
        rc = cli.main(["analyze", "--trace", str(trace), "--fstar", "0.0",
                       "--tau", "1.0"])
        assert rc == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert not doc["guaranteed"]
        assert set(doc) == {"guaranteed", "solver", "termination", "rate"}
        assert doc["rate"]["q_theory"] is None
        assert cli.main(["analyze", "--trace", str(trace),
                         "--rho", "0.5"]) == cli.EXIT_USAGE
        assert "--theta" in capsys.readouterr().err

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
        assert (out / "DEAL-C.csv").exists()
        lines = (out / "series.csv").read_text().splitlines()
        assert {line.split(",")[0] for line in lines[1:]} == {"DEAL-A"}
        assert len(lines) == len((out / "DEAL-A.csv").read_text().splitlines())

    def test_series_of_repetitions_in_file_name_order(self, tmp_path):
        cfg = small_config(tmp_path, solvers=[
            bench.SolverSpec(name="B", solver="deal-c"),
            bench.SolverSpec(name="A-B", solver="deal-c")])
        cfg.run.max_iter = 3
        cfg.run.repetitions = 2
        out = bench.run_experiment(cfg)
        lines = (out / "series.csv").read_text().splitlines()[1:]
        order = [line.split(",")[0] for line in lines if line.split(",")[1] == "0"]
        assert order == ["A-B", "A-B", "B", "B"]

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

    @pytest.mark.parametrize("argv", [
        ["certify", "--trace", "missing.csv", "--rho", "0.5", "--theta", "2.0"],
        ["sweep", "--preset", "sec53", "--config", "missing.json"],
        ["envelope", "--at", "missing.json"]])
    def test_a_missing_input_file_exits_1(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing." in err
