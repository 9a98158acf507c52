import csv
import io
import math
import tracemalloc

import numpy as np
import pytest

from dealopt.core import (REEVALUATE_BLOCK, TRACE_COLUMNS, DataError,
                          HolderInfo, IterateTrace, KLInfo,
                          Reevaluation, UsageError, _fmt,
                          as_vector, certify_descent, column,
                          certify_displacement, config_digest,
                          min_grad_bound_check, reevaluate_trace)
from dealopt import bench, core
from dealopt.problems import generate_problem


def make_trace(fs, gs, steps=None, disps=None):
    tr = IterateTrace()
    for k, (f, g) in enumerate(zip(fs, gs)):
        tr.append(k, f, g, steps[k] if steps else math.nan, 0,
                  disps[k] if disps else math.nan)
    return tr


def test_metadata_validation():
    with pytest.raises(UsageError):
        HolderInfo(nu=0.0, L=1.0)
    with pytest.raises(UsageError):
        HolderInfo(nu=1.5, L=1.0)
    with pytest.raises(UsageError):
        KLInfo(vartheta=1.0, tau=1.0)
    with pytest.raises(UsageError):
        KLInfo(vartheta=0.5, tau=0.0)
    with pytest.raises(DataError):
        as_vector([1.0, float("nan")])
    with pytest.raises(UsageError):
        as_vector([1.0, 2.0], dim=3)


def test_trace_validate():
    tr = make_trace([1.0, 0.5], [1.0, 0.5])
    assert tr.validate() is tr
    dup = make_trace([1.0, 0.5], [1.0, 0.5])
    dup.k[1] = 0
    with pytest.raises(DataError):
        dup.validate()


def test_certify_descent_exact_quadratic_step():
    # one exact step on f = x^2/2 from x=1: f 0.5 -> 0, grad 1 -> 0
    tr = make_trace([0.5, 0.0], [1.0, 0.0])
    rep = certify_descent(tr, rho=0.5, theta=2.0)
    assert rep.passed and rep.n_checked == 1


def test_certify_descent_constructed_violation():
    tr = make_trace([1.0, 0.9], [1.0, 0.5])
    rep = certify_descent(tr, rho=0.5, theta=2.0)
    assert not rep.passed
    assert rep.worst_violation == pytest.approx(0.4)
    assert rep.worst_index == 0


def test_certify_descent_counts_vacuous_pairs():
    # rel_tol = 2^-40 and |f| <= 1 make every slack exactly 2^-40; the
    # required decrease rho g^2 is 1, 2^-40 (at the slack: vacuous), 2^-38
    # and 2^-42 (below it: vacuous)
    tr = make_trace([0.75, -0.5, -0.5, -0.75, -0.75],
                    [1.0, 2.0 ** -20, 2.0 ** -19, 2.0 ** -21, 0.0])
    rep = certify_descent(tr, rho=1.0, theta=2.0, rel_tol=2.0 ** -40)
    assert rep.passed and rep.n_checked == 4 and rep.n_vacuous == 2
    doc = rep.as_dict()
    assert list(doc)[:4] == ["name", "passed", "n_checked", "n_vacuous"]
    assert doc["n_vacuous"] == 2
    assert certify_descent(make_trace([1.0], [1.0]), 0.5, 2.0).n_vacuous == 0


def test_vacuous_pair_still_fails_when_f_rises_past_its_slack():
    # required 2^-42 is below the slack 2^-40, but f rises by 2^-38 > slack - required
    tr = make_trace([0.5, 0.5 + 2.0 ** -38], [2.0 ** -21, 0.0])
    rep = certify_descent(tr, rho=1.0, theta=2.0, rel_tol=2.0 ** -40)
    assert rep.n_vacuous == 1 and not rep.passed
    assert rep.worst_violation == 2.0 ** -38 + 2.0 ** -42


def test_certify_descent_errors():
    with pytest.raises(UsageError):
        certify_descent(IterateTrace(rho=0.5, theta=2.0), 0.5, 2.0)
    tr = make_trace([1.0, float("inf")], [1.0, 0.0])
    with pytest.raises(DataError):
        certify_descent(tr, 0.5, 2.0)
    with pytest.raises(UsageError):
        certify_descent(make_trace([1.0], [1.0]), rho=-1.0, theta=2.0)


def test_certify_displacement_gradient_step_equality():
    # x' = x - a*grad: displacement equals a*||grad|| exactly (theta = 2)
    a = 0.3
    g = [2.0, 1.0, 0.5]
    disps = [a * gi for gi in g[:-1]] + [math.nan]
    tr = make_trace([3.0, 2.0, 1.5], g, disps=disps)
    assert certify_displacement(tr, c=a, theta=2.0).passed


def test_certify_displacement_violation_and_missing():
    tr = make_trace([1.0, 0.5], [1.0, 0.1], disps=[2.0, math.nan])
    rep = certify_displacement(tr, c=1.0, theta=2.0)
    assert not rep.passed and rep.worst_index == 0
    empty = make_trace([1.0, 0.5], [1.0, 0.1])
    with pytest.raises(DataError):
        certify_displacement(empty, c=1.0, theta=2.0)


def test_min_grad_bound_value():
    # bound at N=100 with gap 1, rho 0.5, theta 2 is sqrt(1/50)
    fs = [1.0] + [0.5] * 99
    gs = [0.2] + [0.13] * 99
    tr = make_trace(fs, gs)
    rep = min_grad_bound_check(tr, rho=0.5, theta=2.0, fstar=0.0)
    bound_100 = (1.0 / (0.5 * 100)) ** 0.5
    assert bound_100 == pytest.approx(0.1414213562373095)
    assert rep.passed  # running min 0.13 < 0.1414...


def test_min_grad_bound_single_step_exact():
    tr = make_trace([0.5, 0.0], [1.0, 0.0])
    assert min_grad_bound_check(tr, rho=0.5, theta=2.0, fstar=0.0).passed


def test_min_grad_bound_violation_and_usage():
    tr = make_trace([1.0, 0.99], [3.0, 3.0])
    rep = min_grad_bound_check(tr, rho=0.5, theta=2.0, fstar=0.0)
    assert not rep.passed  # bound at N=1 is sqrt(2) < 3
    with pytest.raises(UsageError):
        min_grad_bound_check(tr, rho=0.5, theta=2.0, fstar=2.0)


def test_trace_csv_roundtrip(tmp_path):
    tr = make_trace([1.0, 0.5, 0.25], [1.0, 0.7, 1e-7],
                    steps=[0.1, 0.1, math.nan],
                    disps=[0.05, 0.025, math.nan])
    tr.inner_count[1] = 3
    path = tmp_path / "t.csv"
    tr.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "k,f,grad_norm,step,inner_count,displacement"
    back = IterateTrace.from_csv(path, rho=0.5, theta=2.0)
    assert back.f_values().tolist() == [1.0, 0.5, 0.25]
    assert back.inner_count[1] == 3
    assert math.isnan(back.displacement[2])
    # byte-identical rewrite
    back.to_csv(tmp_path / "t2.csv")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()


def csv_writer_bytes(trace):
    """The bytes ``csv.writer`` gives for a trace's rows."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(TRACE_COLUMNS)
    for k, f, g, step, inner, disp in zip(trace.k, trace.f, trace.grad_norm, trace.step,
                                          trace.inner_count, trace.displacement):
        writer.writerow([k, _fmt(f), _fmt(g), _fmt(step), inner, _fmt(disp)])
    return out.getvalue().encode()


def test_trace_csv_writes_the_bytes_of_csv_writer(tmp_path):
    # -0.0, inf and NaN fields, numpy scalars, records appended from the
    # same field objects (as a replayed fixed point's are), and equal values
    # appended from distinct objects
    trace = IterateTrace()
    trace.append(0, 1e300, 5e-324, -0.0, 1000, -math.inf)
    trace.append(1, float("nan"), 0.1 + 0.2, math.nan)
    trace.append(2, np.float64(-1.5), np.float64(2.0), 0.5, 3, np.float64(-0.0))
    shared = (-0.0, math.inf, 2.0 ** -60, 60, 0.0)
    for k in range(3, 9):
        trace.append(k, *shared)
    trace.append(9, -0.0, math.inf, 2.0 ** -60, 60, 0.0)
    trace.append(10, -1.0, 1.0, displacement=math.nan)
    trace.to_csv(tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == csv_writer_bytes(trace)


def reference_rows(trace, fstar):
    """Both files of one trace, row by row through ``csv.writer`` and
    ``repr``: its trace CSV, and its series.csv rows as variant ``V``."""
    blank = lambda v: "" if math.isnan(v) else repr(v)
    trace_csv, series_csv = io.StringIO(newline=""), io.StringIO(newline="")
    rows, series = csv.writer(trace_csv), csv.writer(series_csv, lineterminator="\n")
    rows.writerow(TRACE_COLUMNS)
    for k, f, g, step, inner, disp in zip(*(getattr(trace, name).tolist()
                                             for name in TRACE_COLUMNS)):
        rows.writerow([k, blank(f), blank(g), blank(step), inner, blank(disp)])
        series.writerow(["V", k, repr(f - fstar), repr(g)])
    return trace_csv.getvalue().encode(), series_csv.getvalue().encode()


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, None])
def test_both_writers_write_the_rows_of_the_reference_loop(tmp_path, monkeypatch, chunk):
    # a replayed stretch that straddles a chunk boundary, rows that differ
    # only in 0.0 against -0.0, NaN step fields and NaNs of either sign
    if chunk is not None:
        monkeypatch.setattr(core, "WRITE_CHUNK", chunk)
    boundary = core.WRITE_CHUNK
    trace = IterateTrace()
    trace.append(0, 2.0, 1.0, 0.5, 1, 0.25)
    trace.append(1, 0.0, 0.5, 0.5, 1, 0.0)
    trace.append(2, -0.0, 0.5, 0.5, 1, 0.0)
    trace.append(3, -0.0, -0.0, 0.5, 1, 0.0)
    trace.append(4, -0.0, -0.0, 0.5, 1, -0.0)
    trace.append(5, math.nan, 0.25, math.nan, 2, math.nan)
    trace.append(6, -math.nan, 0.25, -math.nan, 2, math.nan)
    while len(trace) < boundary - 2:
        trace.append(len(trace), 1.0 / (len(trace) + 1), 0.125, 0.5, 0, 0.125)
    for _ in range(5):          # one row repeated across a chunk boundary
        trace.append(len(trace), 0.0625, 0.0625, 0.25, 3, 0.0)
    trace.append(len(trace), 0.0625, 0.0625, math.nan, 0, math.nan)
    assert len(trace) > boundary + 2
    expected_trace, expected_series = reference_rows(trace, 0.0)
    trace.to_csv(tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == expected_trace
    bench.emit_plot_data(tmp_path, {"V": bench._series("V", 0.0, trace)})
    assert (tmp_path / "series.csv").read_bytes() == (b"variant,k,f_gap,grad_norm\n"
                                                      + expected_series)


def test_trace_columns_must_have_one_entry_per_record():
    columns = {name: column(name, [0, 1]) for name in TRACE_COLUMNS}
    columns["step"] = column("step", [0.5])
    with pytest.raises(UsageError, match="trace columns must have one entry per record"):
        IterateTrace(columns=columns)
    columns["step"].append(0.25)
    assert IterateTrace(columns=columns).step is columns["step"]


def test_trace_csv_header_required(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1.0,1.0,0.1,0,\n")
    with pytest.raises(DataError):
        IterateTrace.from_csv(path)


def test_reevaluate_trace_overrides_logged_values():
    xs = [np.array([2.0]), np.array([1.0]), np.array([0.5])]
    # logged values are deliberately wrong
    tr = make_trace([9.0, 9.0, 9.0], [9.0, 9.0, 9.0])
    value = lambda x: 0.5 * float(x @ x)
    grad = lambda x: np.asarray(x, dtype=float)
    fixed = reevaluate_trace(tr, xs, value, grad)
    assert fixed.f_values() == pytest.approx([2.0, 0.5, 0.125])
    assert fixed.grad_norms() == pytest.approx([2.0, 1.0, 0.5])
    assert fixed.displacements()[:-1] == pytest.approx([1.0, 0.5])


@pytest.mark.parametrize("given", [0, 2, 4])
def test_reevaluate_trace_refuses_another_number_of_iterates(given):
    xs = [np.array([2.0]), np.array([1.0]), np.array([0.5]), np.array([0.25])]
    tr = make_trace([9.0, 9.0, 9.0], [9.0, 9.0, 9.0])
    with pytest.raises(DataError, match=f"{given} iterates were re-evaluated for a "
                                        "trace of 3 records"):
        reevaluate_trace(tr, xs[:given], lambda x: 0.5 * float(x @ x),
                         lambda x: np.asarray(x, dtype=float))


class CountingHalfSquare:
    """f(x) = ||x||^2 / 2 through per-point and batch oracles that log what
    they are given."""

    def __init__(self):
        self.points = []
        self.blocks = []

    def value(self, x):
        self.points.append(("value", x))
        return 0.5 * float(x @ x)

    def grad(self, x):
        self.points.append(("grad", x))
        return x.copy()

    def evaluate(self, x):
        self.points.append(("evaluate", x))
        return 0.5 * float(x @ x), x.copy()

    def rows(self, X):
        self.blocks.append(X.copy())
        return 0.5 * np.einsum("ij,ij->i", X, X), X.copy()


def replayed_trace(distinct, tail, n=3):
    """``(trace, xs, X)``: a trace of ``distinct`` iterates, the rows of
    ``X``, then ``tail`` replayed records, and the iterates ``xs`` a run
    hands to ``observe`` for it, the last one repeated as one shared array,
    as a fixed-point replay hands it."""
    X = np.random.default_rng(distinct).uniform(-5.0, 5.0, (distinct, n))
    xs = [row.copy() for row in X]
    xs += [xs[-1]] * tail
    trace = IterateTrace()
    for k in range(len(xs)):
        trace.append(k, 9.0, 9.0, 0.5, k % 3)
    return trace, xs, X


# one short of, at and one past REEVALUATE_BLOCK, and several blocks whose
# last is short, full and one point long (511, 512 and 513 at a block of 128)
@pytest.mark.parametrize("distinct, tail", [
    (1, 0), (1, 5), (REEVALUATE_BLOCK - 1, 300), (REEVALUATE_BLOCK, 300),
    (REEVALUATE_BLOCK + 1, 300), (300, 400), (511, 300), (512, 300), (513, 300), (1100, 0)])
@pytest.mark.parametrize("batched", [False, True])
def test_reevaluate_trace_evaluates_each_distinct_iterate_once(distinct, tail,
                                                               batched):
    tr, xs, X = replayed_trace(distinct, tail)
    oracle = CountingHalfSquare()
    fixed = reevaluate_trace(tr, xs, oracle.value, oracle.grad,
                             oracle.rows if batched else None)
    if batched:
        assert oracle.points == []
        full, rest = divmod(distinct, REEVALUATE_BLOCK)
        assert [len(B) for B in oracle.blocks] == [REEVALUATE_BLOCK] * full + [rest] * (rest > 0)
        assert np.array_equal(np.vstack(oracle.blocks), X)
    else:
        assert oracle.blocks == []
        assert [name for name, _ in oracle.points] == ["grad", "value"] * distinct
        assert all(x is xs[i // 2] for i, (_, x) in enumerate(oracle.points))
    last = len(tr) - 1
    assert len(fixed) == len(tr)
    for i, (f, g, disp) in enumerate(zip(fixed.f, fixed.grad_norm, fixed.displacement)):
        x = X[min(i, distinct - 1)]
        assert ((fixed.k[i], fixed.step[i], fixed.inner_count[i])
                == (tr.k[i], tr.step[i], tr.inner_count[i]))
        assert f == pytest.approx(0.5 * float(x @ x), rel=1e-15)
        assert g == pytest.approx(float(np.linalg.norm(x)), rel=1e-15)
        if i == last:
            assert math.isnan(disp)
        elif i >= distinct - 1:
            assert disp == 0.0
        else:
            assert disp == float(np.linalg.norm(X[i + 1] - x))
    # the columns the re-evaluation leaves as logged are the solver's own
    assert fixed.k is tr.k and fixed.step is tr.step and fixed.inner_count is tr.inner_count



@pytest.mark.parametrize("n", [1, 7, 8, 9, 200, 1025])
def test_reevaluation_measures_each_distance_as_its_point_alone(n):
    # the distances to xstar are taken a block at a time, bit for bit those
    # of each point reduced alone; a replayed record repeats its point's
    tr, xs, _ = replayed_trace(REEVALUATE_BLOCK + 5, 3, n=n)
    xstar = np.random.default_rng(n).standard_normal(n)
    oracle = CountingHalfSquare()
    reevaluation = Reevaluation(oracle.evaluate, oracle.rows, xstar)
    for x in xs:
        reevaluation.add(x)
    distances = reevaluation.result(tr)[1]
    alone = [np.sqrt(np.add.reduce((x - xstar) * (x - xstar))) for x in xs]
    assert distances.tobytes() == np.array(alone).tobytes()


@pytest.mark.parametrize("distinct, tail", [(1, 0), (1, 5), (REEVALUATE_BLOCK + 1, 300)])
def test_reevaluation_evaluates_each_distinct_iterate_in_one_call(distinct, tail):
    # without a batch oracle each distinct iterate is one call of the
    # per-point oracle, and a replayed fixed point, however many records it
    # fills, is one iterate
    tr, xs, X = replayed_trace(distinct, tail)
    oracle = CountingHalfSquare()
    reevaluation = Reevaluation(oracle.evaluate)
    for x in xs:
        reevaluation.add(x)
    checked = reevaluation.result(tr)[0]
    assert [name for name, _ in oracle.points] == ["evaluate"] * distinct
    assert all(x is xs[i] for i, (_, x) in enumerate(oracle.points))
    assert oracle.blocks == []
    expected = reevaluate_trace(tr, xs, lambda x: 0.5 * float(x @ x), lambda x: x.copy())
    for name in ("f", "grad_norm", "displacement"):
        assert getattr(checked, name).tobytes() == getattr(expected, name).tobytes(), name


def test_reevaluation_refuses_a_trace_of_other_records():
    tr, xs, _ = replayed_trace(5, 2)
    oracle = CountingHalfSquare()
    reevaluation = Reevaluation(oracle.evaluate, oracle.rows)
    for x in xs[:-1]:
        reevaluation.add(x)
    with pytest.raises(DataError, match="6 iterates were re-evaluated for a trace of 7"):
        reevaluation.result(tr)

def test_reevaluate_trace_working_set_is_bounded_by_its_block():
    # least-p 1000 x 200 with 1,100 distinct iterates: above the trace it
    # returns, re-evaluation holds at most two (REEVALUATE_BLOCK x m) arrays
    # of doubles at once, whatever the trace's length
    problem = generate_problem(0, "leastp", 1000, 200, p=1.5, consistent=True)
    tr, xs, _ = replayed_trace(1100, 0, n=problem.n)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        checked = reevaluate_trace(tr, xs, problem.value, problem.grad,
                                   problem.value_grad_rows)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(checked) == 1100
    assert peak - kept <= 2 * REEVALUATE_BLOCK * problem.m * 8



def traced(call):
    """``(result, kept, peak)``: what ``call()`` returns, and the bytes it
    left allocated and allocated at most, both above where it started."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, kept - before, peak - before


@pytest.mark.parametrize("max_iter", [1000, 4000])
def test_run_variant_working_set_is_bounded_by_its_block(max_iter):
    # a least-p 1000 x 200 run of max_iter distinct iterates (DEAL-C2 descends
    # slowly and never stops early), re-evaluated while it proceeds: above
    # what the same run keeps when it re-evaluates nothing, it allocates at
    # most that again (the re-evaluated copy of its records) and four
    # (REEVALUATE_BLOCK x max(m, n)) arrays of doubles, whatever max_iter is;
    # storing the iterates would take max_iter x n doubles
    problem = generate_problem(0, "leastp", 1000, 200, p=1.5, consistent=True)
    spec = bench.SolverSpec(solver="deal-c", beta=0.0)
    # the problem's reference optimum and cached products, as every variant
    # but the first finds them
    bench.run_variant(problem, spec, bench.RunSpec(max_iter=2))
    _, unchecked, _ = traced(lambda: bench.run_variant(
        problem, spec, bench.RunSpec(max_iter=max_iter, store_iterates=False)))
    result, _, peak = traced(lambda: bench.run_variant(
        problem, spec, bench.RunSpec(max_iter=max_iter)))
    assert result.certificates["reevaluated"] and len(result.trace) == max_iter + 1
    assert peak <= 2 * unchecked + 4 * REEVALUATE_BLOCK * max(problem.m, problem.n) * 8


def test_a_run_holds_its_records_as_columns():
    # least-p 40 x 8 deal-c at beta -0.2 runs to max_iter with no fixed point:
    # 20,001 records and no iterate kept.  Its trace is six 8-byte columns, 48
    # bytes a record; kept as one Python object per record, as traces were
    # before the columns, the same run held 193 bytes a record and peaked at 509
    problem = bench.build_problem(bench.ProblemSpec(kind="leastp", m=40, n=8))
    spec = bench.SolverSpec(solver="deal-c", beta=-0.2)
    # the problem's reference optimum and cached products, as every variant
    # but the first finds them
    bench.run_variant(problem, spec, bench.RunSpec(max_iter=2))
    result, kept, peak = traced(lambda: bench.run_variant(
        problem, spec, bench.RunSpec(eps=1e-300, max_iter=20000)))
    trace = result.trace
    assert trace.extras["termination"] == "max_iter" and "fixed_point_at" not in trace.extras
    assert len(trace) == 20001
    assert peak <= 200 * len(trace)
    assert kept <= 80 * len(trace)


def test_config_digest_stable():
    a = config_digest({"b": 1, "a": [1, 2]})
    b = config_digest({"a": [1, 2], "b": 1})
    assert a == b and len(a) == 12
    assert config_digest({"a": 2}) != a
