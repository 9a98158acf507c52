import csv
import gc
import io
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from dealopt.core import (REEVALUATE_BLOCK, TRACE_COLUMNS, DataError, Evaluation,
                          HolderInfo, IterateTrace, KLInfo,
                          Reevaluation, SmoothObjective, UsageError, _fmt,
                          as_vector, certify_descent, column,
                          certify_displacement, config_digest,
                          min_grad_bound_check, reevaluate_trace)
import dealopt
from dealopt import bench
from dealopt.analysis import per_step_ratio_check
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


@pytest.mark.parametrize("x", [["a", 1.0], [[1.0, 2.0], [3.0]], {"a": 1.0}])
def test_as_vector_refuses_what_is_not_numbers_naming_it(x):
    with pytest.raises(DataError, match="^--at is not an array of numbers: "):
        as_vector(x, name="--at")


@pytest.mark.parametrize("dim, message", [
    (2.5, "dim must be an integer, got 2.5"), (True, "dim must be an integer, got True"),
    (0, "dim must be >= 1, got 0"), (np.float64(3.0), "dim must be an integer")])
def test_smooth_objective_refuses_a_dim_that_is_no_count(dim, message):
    # a fractional or boolean dim is refused where the objective is made,
    # not by the run that compares it with x0's dimension
    def value(x):
        return Evaluation(x, 0.0)
    with pytest.raises(UsageError, match=message):
        SmoothObjective(dim, value, lambda ev: ev)
    assert SmoothObjective(np.int64(2), value, lambda ev: ev).dim == 2


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


@pytest.mark.parametrize("fs, gs, passed, n_vacuous", [
    # every bound sqrt(2/N) >= ||g_0|| = 0.1: the check checks nothing and
    # reaches no verdict
    pytest.param([1.0, 0.5, 0.5], [0.1, 0.05, 0.05], None, 3, id="vacuous"),
    # sqrt(2/N) >= ||g_0|| = 0.21 for N <= 45; the later prefixes pass
    # against a live bound, down to sqrt(2/100) > 0.13
    pytest.param([1.0] + [0.5] * 99, [0.21] + [0.13] * 99, True, 45, id="live-passing"),
    # sqrt(2) < 3 already at N = 1
    pytest.param([1.0, 0.99], [3.0, 3.0], False, 0, id="live-failing"),
])
def test_min_grad_bound_counts_its_vacuous_prefixes(fs, gs, passed, n_vacuous):
    rep = min_grad_bound_check(make_trace(fs, gs), rho=0.5, theta=2.0, fstar=0.0)
    assert (rep.passed, rep.n_checked, rep.n_vacuous) == (passed, len(fs), n_vacuous)
    assert rep.as_dict()["n_vacuous"] == n_vacuous
    assert rep.as_dict()["passed"] is passed


def test_a_check_with_no_live_case_reaches_no_verdict():
    # every pair's required decrease rho g^2 = 2^-42 is below the slack 2^-40
    vacuous = make_trace([0.5, 0.5, 0.5], [2.0 ** -21, 2.0 ** -21, 0.0])
    rep = certify_descent(vacuous, rho=1.0, theta=2.0, rel_tol=2.0 ** -40)
    assert (rep.passed, rep.n_checked, rep.n_vacuous) == (None, 2, 2)
    assert rep.as_dict()["passed"] is None
    # one record: no pair, so nothing is checked
    single = certify_descent(make_trace([1.0], [1.0]), 0.5, 2.0)
    assert (single.passed, single.n_checked) == (None, 0)
    # one live pair among vacuous ones gives a verdict
    live = make_trace([0.5, 0.5, 0.25, 0.25], [2.0 ** -21, 0.5, 2.0 ** -21, 0.0])
    assert certify_descent(live, rho=1.0, theta=2.0, rel_tol=2.0 ** -40).passed is True
    # no gap above the floor: per_step_ratio checks nothing
    flat = make_trace([0.0, 0.0], [1.0, 1.0])
    ratio = per_step_ratio_check(flat, 0.0, 0.5)
    assert (ratio.passed, ratio.n_checked) == (None, 0)
    assert bench.bundle_ok({"descent": rep.as_dict(), "per_step_ratio": ratio.as_dict()})


def test_an_infinite_min_grad_bound_is_vacuous_and_warns_nothing():
    # gap / (rho N) overflows for the first prefixes: their bound is infinite
    tr = make_trace([1e10, 1.0, 0.5], [1.0, 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = min_grad_bound_check(tr, rho=1e-300, theta=2.0, fstar=0.0)
    assert rep.passed is None and rep.n_vacuous == 3
    assert rep.worst_violation == -math.inf


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


def test_both_writers_write_the_rows_of_the_reference_loop(tmp_path):
    # rows that differ only in 0.0 against -0.0, NaN step fields, NaNs of
    # either sign and a long replayed stretch, each row of it repeating the
    # last one's bits
    trace = IterateTrace()
    trace.append(0, 2.0, 1.0, 0.5, 1, 0.25)
    trace.append(1, 0.0, 0.5, 0.5, 1, 0.0)
    trace.append(2, -0.0, 0.5, 0.5, 1, 0.0)
    trace.append(3, -0.0, -0.0, 0.5, 1, 0.0)
    trace.append(4, -0.0, -0.0, 0.5, 1, -0.0)
    trace.append(5, math.nan, 0.25, math.nan, 2, math.nan)
    trace.append(6, -math.nan, 0.25, -math.nan, 2, math.nan)
    trace.append(7, math.nan, 0.25, math.nan, 2, math.nan)
    while len(trace) < 40:
        trace.append(len(trace), 1.0 / (len(trace) + 1), 0.125, 0.5, 0, 0.125)
    for _ in range(300):
        trace.append(len(trace), 0.0625, 0.0625, 0.25, 3, 0.0)
    trace.append(len(trace), 0.0625, 0.0625, math.nan, 0, math.nan)
    expected_trace, expected_series = reference_rows(trace, 0.0)
    trace.to_csv(tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == expected_trace
    bench.emit_plot_data(tmp_path, {"V": (0.0, trace.k, trace.f, trace.grad_norm)})
    assert (tmp_path / "series.csv").read_bytes() == (b"variant,k,f_gap,grad_norm\n"
                                                      + expected_series)


def test_columns_grow_again_after_both_writers(tmp_path):
    # an array.array refuses to resize while a buffer view of it is alive, so
    # a view the writers leak fails the appends
    trace = make_trace([1.0, 0.5, 0.5], [1.0, 0.5, 0.5])
    trace.to_csv(tmp_path / "t.csv")
    trace.append(3, 0.25, 0.25)
    bench.emit_plot_data(tmp_path, {"V": (0.0, trace.k, trace.f, trace.grad_norm)})
    trace.append(4, 0.125, 0.125)
    for name in TRACE_COLUMNS:
        getattr(trace, name).append(getattr(trace, name)[-1])
    assert len(trace) == 6


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
    fixed = reevaluate_trace(tr, xs, CountingHalfSquare().rows)
    assert fixed.f_values() == pytest.approx([2.0, 0.5, 0.125])
    assert fixed.grad_norms() == pytest.approx([2.0, 1.0, 0.5])
    assert fixed.displacements()[:-1] == pytest.approx([1.0, 0.5])


@pytest.mark.parametrize("given", [0, 2, 4])
def test_reevaluate_trace_refuses_another_number_of_iterates(given):
    xs = [np.array([2.0]), np.array([1.0]), np.array([0.5]), np.array([0.25])]
    tr = make_trace([9.0, 9.0, 9.0], [9.0, 9.0, 9.0])
    with pytest.raises(DataError, match=f"{given} iterates were re-evaluated for a "
                                        "trace of 3 records"):
        reevaluate_trace(tr, xs[:given], CountingHalfSquare().rows)


class CountingHalfSquare:
    """f(x) = ||x||^2 / 2 through a batch oracle that logs the blocks it is
    given, and through ``each_row``, a rows oracle that evaluates each row
    alone by one call of the per-point oracle ``evaluate``, as the tests'
    ``per_point`` oracles do, which logs the points it is given."""

    def __init__(self):
        self.blocks = []
        self.points = []

    def rows(self, X):
        self.blocks.append(X.copy())
        return 0.5 * np.einsum("ij,ij->i", X, X), X.copy()

    def evaluate(self, x):
        self.points.append(x.copy())
        # the row alone through the batch oracle's own sum, bit for bit its row
        return 0.5 * np.einsum("ij,ij->i", x[None], x[None])[0], x.copy()

    def each_row(self, X):
        values, gradients = zip(*(self.evaluate(x) for x in X))
        return np.array(values), np.stack(gradients)


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
    # through the fused batch oracle, or a rows oracle that makes one
    # per-point call a row: either way each distinct iterate is evaluated once
    tr, xs, X = replayed_trace(distinct, tail)
    oracle = CountingHalfSquare()
    fixed = reevaluate_trace(tr, xs, oracle.rows if batched else oracle.each_row)
    if batched:
        assert oracle.points == []
        full, rest = divmod(distinct, REEVALUATE_BLOCK)
        assert [len(B) for B in oracle.blocks] == [REEVALUATE_BLOCK] * full + [rest] * (rest > 0)
        assert np.array_equal(np.vstack(oracle.blocks), X)
    else:
        assert oracle.blocks == []
        assert len(oracle.points) == distinct
        assert np.array_equal(np.stack(oracle.points), X)
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
    reevaluation = Reevaluation(oracle.rows, xstar)
    for x in xs:
        reevaluation.add(x)
    distances = reevaluation.result(tr)[1]
    alone = [np.sqrt(np.add.reduce((x - xstar) * (x - xstar))) for x in xs]
    assert distances.tobytes() == np.array(alone).tobytes()


@pytest.mark.parametrize("distinct, tail", [(1, 0), (1, 5), (REEVALUATE_BLOCK + 1, 300)])
def test_reevaluation_evaluates_each_distinct_iterate_in_one_call(distinct, tail):
    # through a rows oracle that makes one per-point call a row, each distinct
    # iterate is one call, and a replayed fixed point, however many records
    # it fills, is one iterate; the columns are bit for bit the fused oracle's
    tr, xs, X = replayed_trace(distinct, tail)
    oracle = CountingHalfSquare()
    reevaluation = Reevaluation(oracle.each_row)
    for x in xs:
        reevaluation.add(x)
    checked = reevaluation.result(tr)[0]
    assert len(oracle.points) == distinct
    assert all(np.array_equal(x, xs[i]) for i, x in enumerate(oracle.points))
    assert oracle.blocks == []
    expected = reevaluate_trace(tr, xs, CountingHalfSquare().rows)
    for name in ("f", "grad_norm", "displacement"):
        assert (np.asarray(getattr(checked, name)).tobytes()
                == np.asarray(getattr(expected, name)).tobytes()), name


def test_reevaluation_refuses_a_trace_of_other_records():
    tr, xs, _ = replayed_trace(5, 2)
    oracle = CountingHalfSquare()
    reevaluation = Reevaluation(oracle.rows)
    for x in xs[:-1]:
        reevaluation.add(x)
    with pytest.raises(DataError, match="6 iterates were re-evaluated for a trace of 7"):
        reevaluation.result(tr)

class ThreadLoggingHalfSquare(CountingHalfSquare):
    """``CountingHalfSquare`` whose batch oracle also logs the thread of
    each call."""

    def __init__(self):
        super().__init__()
        self.threads = []

    def rows(self, X):
        self.threads.append(threading.get_ident())
        return super().rows(X)


@pytest.mark.parametrize("distinct", [REEVALUATE_BLOCK - 1, REEVALUATE_BLOCK,
                                      REEVALUATE_BLOCK + 1, 3 * REEVALUATE_BLOCK + 1])
def test_reevaluation_evaluates_full_blocks_on_one_worker_thread(distinct):
    # every full block goes to one thread that is not the caller's, the
    # last, partial block stays on the caller's, and result() leaves no
    # thread behind: a run of fewer than a block starts none
    tr, xs, X = replayed_trace(distinct, 5)
    oracle = ThreadLoggingHalfSquare()
    threads = threading.active_count()
    reevaluation = Reevaluation(oracle.rows)
    for x in xs:
        reevaluation.add(x)
    checked = reevaluation.result(tr)[0]
    assert threading.active_count() == threads
    full, rest = divmod(distinct, REEVALUATE_BLOCK)
    caller = threading.get_ident()
    assert len(oracle.threads) == full + (rest > 0)
    workers = set(oracle.threads[:full])
    assert len(workers) == (full > 0) and caller not in workers
    assert oracle.threads[full:] == [caller] * (rest > 0)
    assert np.array_equal(np.vstack(oracle.blocks), X)
    assert np.array_equal(np.asarray(checked.f)[:distinct], 0.5 * np.einsum("ij,ij->i", X, X))


@pytest.mark.parametrize("over", ["ignore", "raise"])
def test_reevaluation_evaluates_a_full_block_under_the_callers_error_state(over):
    # a full block fed under np.errstate(over=...) is evaluated under it, as
    # it was when the block was evaluated in add: an overflow that is
    # ignored there warns nowhere, even with every warning an error, and one
    # that raises there raises from the re-evaluation
    def rows(X):
        np.float64(1e308) * 10.0
        return 0.5 * np.einsum("ij,ij->i", X, X), X.copy()

    tr, xs, X = replayed_trace(REEVALUATE_BLOCK, 3)
    reevaluation = Reevaluation(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if over == "ignore":
            with np.errstate(over=over):
                for x in xs:
                    reevaluation.add(x)
            checked = reevaluation.result(tr)[0]
            assert np.array_equal(np.asarray(checked.f)[:-3], 0.5 * np.einsum("ij,ij->i", X, X))
        else:
            with pytest.raises(FloatingPointError, match="overflow"):
                with np.errstate(over=over):
                    for x in xs:
                        reevaluation.add(x)
                reevaluation.result(tr)


@pytest.mark.parametrize("distinct", [2 * REEVALUATE_BLOCK, 3 * REEVALUATE_BLOCK + 1])
def test_reevaluation_raises_its_oracles_error_from_the_worker(distinct):
    # the second block's error is raised, the same object, by the add that
    # takes that block's results (the third full block's) or by result(),
    # and the worker is stopped
    error = DataError("malformed block")
    calls = []

    def rows(X):
        calls.append(len(X))
        if len(calls) == 2:
            raise error
        return 0.5 * np.einsum("ij,ij->i", X, X), X.copy()

    tr, xs, _ = replayed_trace(distinct, 0)
    threads = threading.active_count()
    reevaluation = Reevaluation(rows)
    with pytest.raises(DataError) as raised:
        for x in xs:
            reevaluation.add(x)
        reevaluation.result(tr)
    assert raised.value is error and calls == [REEVALUATE_BLOCK] * 2
    assert threading.active_count() == threads


def test_a_dropped_reevaluation_stops_its_worker():
    # a run that stops before its result, as one whose solver raises does,
    # leaves no thread once its re-evaluation is collected
    tr, xs, _ = replayed_trace(2 * REEVALUATE_BLOCK + 5, 0)
    threads = threading.active_count()
    reevaluation = Reevaluation(CountingHalfSquare().rows)
    for x in xs:
        reevaluation.add(x)
    assert threading.active_count() == threads + 1
    del reevaluation
    gc.collect()
    assert threading.active_count() == threads


def test_concurrent_reevaluations_keep_their_blocks_in_order():
    # eight threads on two cores, each with a re-evaluation of 20 blocks and
    # so a worker of its own, the interpreter switching threads every
    # microsecond: each re-evaluation's values are its own points', in order
    def reevaluate(seed, out):
        X = np.random.default_rng(seed).uniform(-5.0, 5.0, (20 * REEVALUATE_BLOCK + 7, 3))
        trace = IterateTrace()
        reevaluation = Reevaluation(CountingHalfSquare().rows)
        for k, x in enumerate(X):
            trace.append(k, 9.0, 9.0)
            reevaluation.add(x)
        out[seed] = (X, reevaluation.result(trace)[0])

    out = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [threading.Thread(target=reevaluate, args=(seed, out)) for seed in range(8)]
        for run in runs:
            run.start()
        for run in runs:
            run.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(run.is_alive() for run in runs) and sorted(out) == list(range(8))
    for X, checked in out.values():
        assert np.asarray(checked.f).tobytes() == (0.5 * np.einsum("ij,ij->i", X, X)).tobytes()
        assert np.asarray(checked.grad_norm).tobytes() == np.linalg.norm(X, axis=1).tobytes()


@pytest.mark.parametrize("distinct, imported", [(REEVALUATE_BLOCK - 1, False),
                                                 (REEVALUATE_BLOCK, True)])
def test_only_a_full_block_imports_concurrent_futures(distinct, imported):
    # the package, its benchmark harness and its CLI load no
    # concurrent.futures (nor the logging it loads): a run that fills no
    # block, as every sec53-seeds and bhippa-n100 run, pays for neither in
    # set-up time or memory; the first full block imports it
    code = f"""if True:
        import sys
        import numpy as np
        import dealopt, dealopt.bench, dealopt.cli
        from dealopt.core import IterateTrace, reevaluate_trace
        xs = [np.full(3, float(k)) for k in range({distinct})]
        trace = IterateTrace()
        for k in range(len(xs)):
            trace.append(k, 9.0, 9.0)
        reevaluate_trace(trace, xs, lambda X: (0.5 * np.einsum("ij,ij->i", X, X), X))
        print("concurrent.futures" in sys.modules)
    """
    src = os.path.dirname(os.path.dirname(dealopt.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{imported}\n"


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
        checked = reevaluate_trace(tr, xs, problem.value_grad_rows)
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
    # what its solve alone keeps, it allocates at most that again (the
    # re-evaluated copy of its records) and four (REEVALUATE_BLOCK x
    # max(m, n)) arrays of doubles, whatever max_iter is; storing the
    # iterates would take max_iter x n doubles
    problem = generate_problem(0, "leastp", 1000, 200, p=1.5, consistent=True)
    spec = bench.SolverSpec(solver="deal-c", beta=0.0)
    # the problem's reference optimum and cached products, as every variant
    # but the first finds them
    bench.run_variant(problem, spec, bench.RunSpec(max_iter=2))
    run = bench.RunSpec(max_iter=max_iter)
    # the start run_variant draws for repetition 0
    x0 = np.random.default_rng(run.x0_seed).uniform(-5.0, 5.0, size=problem.n)
    _, unchecked, _ = traced(lambda: bench._configure_variant(problem, spec, run)[0](x0, None))
    result, _, peak = traced(lambda: bench.run_variant(problem, spec, run))
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
