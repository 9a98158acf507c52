"""Objective/trace data model and the per-run descent certificates.

Every solver in this package emits an :class:`IterateTrace`; the certificate
functions below re-check the inequalities the solver is supposed to maintain
(per-iteration sufficient decrease, bounded displacement, min-gradient decay)
directly from the logged or re-evaluated quantities.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


class UsageError(ValueError):
    """Caller violated an API precondition."""


class DataError(ValueError):
    """Input data is malformed or incomplete (non-finite values, missing fields)."""


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to produce a usable result."""


class CapabilityError(UsageError):
    """The objective lacks an oracle this operation requires."""


def as_vector(x, dim: Optional[int] = None, name: str = "x") -> np.ndarray:
    """Coerce to a finite 1-D float array, validating dimension if given."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise UsageError(f"{name} must be a vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise UsageError(f"{name} has dimension {arr.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class HolderInfo:
    """Gradient smoothness metadata: ||grad f(x) - grad f(y)|| <= L ||x-y||^nu."""

    nu: float
    L: float

    def __post_init__(self):
        if not 0.0 < self.nu <= 1.0:
            raise UsageError(f"nu must lie in (0, 1], got {self.nu}")
        if not self.L > 0.0:
            raise UsageError(f"L must be positive, got {self.L}")


@dataclass(frozen=True)
class KLInfo:
    """Gradient-dominance metadata: (f(x) - f*)^vartheta <= tau ||grad f(x)||."""

    vartheta: float
    tau: float

    def __post_init__(self):
        if not 0.0 < self.vartheta < 1.0:
            raise UsageError(f"vartheta must lie in (0, 1), got {self.vartheta}")
        if not self.tau > 0.0:
            raise UsageError(f"tau must be positive, got {self.tau}")


@dataclass
class SmoothObjective:
    """Value/gradient oracle with an optional Hessian-apply and the Hölder
    pair of its gradient: only what the solvers read.  The optimal value
    and the dominance constant tau are not carried here; they come from the
    problem's ``reference()``.

    Oracles must be re-entrant: no hidden mutable state across calls, so the
    same ``x`` always gives the same result, bit for bit.  The solvers rely
    on that to replay an exact fixed point instead of re-evaluating it.
    ``value_grad(x) -> (value, gradient)``, when given, is a fused oracle
    that must equal ``(value(x), grad(x))`` bit for bit; callers that want
    both go through ``value_and_grad``, which composes ``value`` and ``grad``
    without it.  ``line_values(x, d, steps) -> (values, margins)``, when
    given, screens the Armijo trials ``x + t d`` for every ``t`` in
    ``steps`` at once: each ``values[i]`` lies within ``margins[i]`` of
    ``value(x + steps[i] d)`` as ``value`` computes it, so a trial whose
    screened value exceeds the test by more than its margin fails the exact
    test too (see ``solvers.screened``).
    """

    dim: int
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    value_grad: Optional[Callable[[np.ndarray], tuple]] = None
    hess_apply: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    holder: Optional[HolderInfo] = None
    line_values: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], tuple]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise UsageError("dimension must be >= 1")

    def value_and_grad(self, x):
        """(value(x), grad(x)) in one call of ``value_grad`` when given."""
        if self.value_grad is not None:
            return self.value_grad(x)
        return self.value(x), self.grad(x)


@dataclass
class CompositeObjective:
    """Smooth part plus a prox-capable nonsmooth part, with no optimal
    value or dominance constant of its own (see ``SmoothObjective``).

    ``nonsmooth`` must expose ``value(x)`` and ``prox(x, gamma, p)``.
    ``line_values(T, d, steps, gamma) -> (values, margins)``, when given,
    is ``SmoothObjective.line_values`` for the forward-backward envelope as
    ``envelopes.fbe_value`` computes it, along ``T + t d``; ``bpga`` screens
    its trials with it.
    """

    smooth: SmoothObjective
    nonsmooth: object
    line_values: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray, float], tuple]] = None

    def value(self, x):
        return self.smooth.value(x) + self.nonsmooth.value(x)


@dataclass(slots=True)
class IterateRecord:
    """One solver iteration: objective value, gradient norm, step bookkeeping.

    ``displacement`` is the norm of the step leaving this iterate; it is
    filled when the next iterate is produced and stays NaN on the final
    record.  The iterate itself is not kept: a solver hands it to its
    ``observe`` hook as the record is made.
    """

    k: int
    f: float
    grad_norm: float
    step: float = math.nan
    inner_count: int = 0
    displacement: float = math.nan


TRACE_COLUMNS = ("k", "f", "grad_norm", "step", "inner_count", "displacement")


@dataclass
class IterateTrace:
    """Ordered iteration log plus the constants certified for the run."""

    records: list[IterateRecord] = field(default_factory=list)
    seed: Optional[int] = None
    config_digest: str = ""
    solver_id: str = ""
    rho: float = math.nan
    theta: float = math.nan
    guaranteed: bool = True
    extras: dict = field(default_factory=dict)

    def validate(self):
        if not (self.rho > 0.0):
            raise UsageError(f"trace rho must be positive, got {self.rho}")
        if not (self.theta > 1.0):
            raise UsageError(f"trace theta must exceed 1, got {self.theta}")
        return self.validate_records()

    def validate_records(self):
        """Check the records alone, whatever the constants: strictly
        increasing k, finite f, nonnegative grad_norm and inner_count."""
        last = -1
        for rec in self.records:
            if rec.k <= last:
                raise DataError("iteration indices must be strictly increasing")
            last = rec.k
            if not math.isfinite(rec.f):
                raise DataError(f"non-finite objective value at k={rec.k}")
            if not rec.grad_norm >= 0.0:
                raise DataError(f"negative gradient norm at k={rec.k}")
            if rec.inner_count < 0:
                raise DataError(f"negative inner count at k={rec.k}")
        return self

    def __len__(self):
        return len(self.records)

    def f_values(self) -> np.ndarray:
        return np.array([r.f for r in self.records], dtype=float)

    def grad_norms(self) -> np.ndarray:
        return np.array([r.grad_norm for r in self.records], dtype=float)

    def steps(self) -> np.ndarray:
        return np.array([r.step for r in self.records], dtype=float)

    def inner_counts(self) -> np.ndarray:
        return np.array([r.inner_count for r in self.records], dtype=int)

    def displacements(self) -> np.ndarray:
        return np.array([r.displacement for r in self.records], dtype=float)

    def to_csv(self, path):
        """Write the exact column layout k,f,grad_norm,step,inner_count,displacement.

        The bytes are those of ``csv.writer`` (comma-separated, CRLF line
        ends; no field needs quoting).  A record whose fields are the very
        objects of its predecessor's, as a replayed fixed point's are, reuses
        their formatting.
        """
        def rows():
            prev = tail = None
            for rec in self.records:
                if not (prev is not None and rec.f is prev.f
                        and rec.grad_norm is prev.grad_norm and rec.step is prev.step
                        and rec.inner_count is prev.inner_count
                        and rec.displacement is prev.displacement):
                    tail = (f"{_fmt(rec.f)},{_fmt(rec.grad_norm)},{_fmt(rec.step)},"
                            f"{rec.inner_count},{_fmt(rec.displacement)}\r\n")
                prev = rec
                yield f"{rec.k},{tail}"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\r\n")
            fh.writelines(rows())

    @classmethod
    def from_csv(cls, path, **meta) -> "IterateTrace":
        """Read a trace written by ``to_csv``; its records are validated here,
        so a malformed file raises ``DataError`` before anything reads it."""
        records = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != TRACE_COLUMNS:
                raise DataError(f"trace CSV must start with header {','.join(TRACE_COLUMNS)}")
            for row in reader:
                try:
                    k, f, gn, step, inner, disp = row
                    records.append(IterateRecord(
                        k=int(k), f=_parse(f), grad_norm=_parse(gn), step=_parse(step),
                        inner_count=int(inner), displacement=_parse(disp)))
                except ValueError:
                    raise DataError(f"malformed trace row: {row!r}") from None
        return cls(records=records, **meta).validate_records()


def _fmt(v: float) -> str:
    return "" if (v is None or math.isnan(v)) else repr(float(v))


def _parse(s: str) -> float:
    return math.nan if s == "" else float(s)


def config_digest(config: dict) -> str:
    """Stable short identifier of a run configuration."""
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class CertificateReport:
    """Outcome of one per-trace inequality check."""

    name: str
    passed: bool
    n_checked: int
    worst_violation: float = -math.inf
    worst_index: int = -1
    details: dict = field(default_factory=dict)
    n_vacuous: Optional[int] = None

    def as_dict(self) -> dict:
        doc = {"name": self.name, "passed": bool(self.passed),
               "n_checked": self.n_checked}
        if self.n_vacuous is not None:
            doc["n_vacuous"] = self.n_vacuous
        doc.update(worst_violation=self.worst_violation if self.n_checked else None,
                   worst_index=self.worst_index, details=self.details)
        return doc


def _verdict(name: str, excess, allowed, index, details: dict,
             n_vacuous: Optional[int]) -> CertificateReport:
    """The report of one check over all its records at once.

    Record ``i`` passes when ``excess[i] <= allowed`` (a scalar or one bound
    per record); ``index[i]`` names it in the trace.  The worst violation is
    the largest excess, at its first occurrence.  ``n_vacuous`` is None for
    a check without a vacuous case.
    """
    report = CertificateReport(name=name, passed=bool(np.all(excess <= allowed)),
                               n_checked=len(excess), details=details,
                               n_vacuous=n_vacuous)
    if len(excess):
        i = int(np.argmax(excess))
        report.worst_violation = float(excess[i])
        report.worst_index = int(index[i])
    return report


def certify_descent(trace: IterateTrace, rho: float, theta: float,
                    rel_tol: float = 1e-10) -> CertificateReport:
    """Check f(x^{k+1}) <= f(x^k) - rho ||grad f(x^k)||^theta on every pair.

    A pair passes when the signed violation
    ``f[k+1] - f[k] + rho * g[k]**theta`` stays below the slack
    ``rel_tol * max(1, |f[k]|)``.  Reports the worst violation and where it
    occurred, and how many pairs were vacuous: their required decrease
    ``rho * g[k]**theta`` is at or below the slack, so they certify no
    decrease at all.  A vacuous pair still fails when ``f`` rises by more
    than ``slack - required``.
    """
    if rho <= 0.0 or theta <= 1.0:
        raise UsageError("certify_descent needs rho > 0 and theta > 1")
    if rel_tol < 0.0:
        raise UsageError("rel_tol must be nonnegative")
    f, g = _finite_series(trace)
    required = rho * g[:-1] ** theta
    slack = rel_tol * np.maximum(1.0, np.abs(f[:-1]))
    return _verdict("descent", f[1:] - f[:-1] + required, slack,
                    np.arange(len(required)),
                    {"rho": rho, "theta": theta, "rel_tol": rel_tol},
                    int(np.count_nonzero(required <= slack)))


def certify_displacement(trace: IterateTrace, c: float, theta: float,
                         rel_tol: float = 1e-10) -> CertificateReport:
    """Check ||x^{k+1} - x^k|| <= c ||grad f(x^k)||^(theta-1) at each recorded step.

    The slack is rel_tol * max(1, bound): once steps shrink below the
    floating-point resolution of the iterates, the measured displacement is
    pure rounding noise at x-scale, so a purely multiplicative slack would
    reject runs that converged too well.
    """
    if c <= 0.0 or theta <= 1.0:
        raise UsageError("certify_displacement needs c > 0 and theta > 1")
    _finite_series(trace)
    disp = trace.displacements()
    have = np.flatnonzero(np.isfinite(disp))
    if not have.size:
        raise DataError("trace stores no displacements")
    bound = c * trace.grad_norms()[have] ** (theta - 1.0)
    return _verdict("displacement",
                    disp[have] - (bound + rel_tol * np.maximum(1.0, bound)), 0.0,
                    have, {"c": c, "theta": theta, "rel_tol": rel_tol}, None)


def min_grad_bound_check(trace: IterateTrace, rho: float, theta: float,
                         fstar: float) -> CertificateReport:
    """Check min_{k<N} ||grad f(x^k)|| <= ((f(x^0)-f*)/(rho N))^(1/theta) for every N.

    The bound follows from summing the descent inequality, so equality is
    attainable (one-step exact minimization); a 1e-12 relative guard absorbs
    round-off in that case.  The worst index is the prefix length N.
    """
    if rho <= 0.0 or theta <= 1.0:
        raise UsageError("min_grad_bound_check needs rho > 0 and theta > 1")
    f, g = _finite_series(trace)
    if not math.isfinite(fstar):
        raise UsageError("fstar must be finite")
    if fstar > f.min() + 1e-12 * max(1.0, abs(fstar)):
        raise UsageError("fstar exceeds the smallest recorded objective value")
    gap0 = max(f[0] - fstar, 0.0)
    n = np.arange(1, len(f) + 1)
    bound = (gap0 / (rho * n)) ** (1.0 / theta)
    return _verdict("min_grad_bound",
                    np.minimum.accumulate(g) - bound * (1.0 + 1e-12), 0.0, n,
                    {"rho": rho, "theta": theta, "fstar": fstar}, None)


# distinct iterates per batch call: a block of residuals of a 1000-row
# least-p problem is 128 x 1000 doubles, 1 MB, the one (rows x m) array its
# batch oracle keeps alive; at most one block of iterates is held at once
REEVALUATE_BLOCK = 128


class Reevaluation:
    """Re-evaluates a run's iterates in blocks, as the run records them.

    Hand ``add`` each recorded iterate in order, one call per record, as
    ``solvers.deal_loop`` does through its ``observe`` hook.  An iterate that
    is the same array as its predecessor (a replayed fixed point) is not
    evaluated again: its record takes its predecessor's values and that
    record's displacement becomes 0.  Distinct iterates are evaluated in
    blocks of ``REEVALUATE_BLOCK``, each as soon as it is full: with a batch
    oracle ``rows(X) -> (values, gradients)`` over the rows of ``X`` a block
    is one call; without it, each point goes through ``grad`` and then
    ``value``.  Only the per-point results are kept (value, gradient norm,
    displacement to the next point and, given ``xstar``, the distance to it),
    with the pending block and the last iterate (``last``).
    """

    def __init__(self, value: Callable[[np.ndarray], float],
                 grad: Callable[[np.ndarray], np.ndarray],
                 rows: Optional[Callable[[np.ndarray], tuple]] = None,
                 xstar=None):
        self._value, self._grad, self._rows = value, grad, rows
        self._xstar = None if xstar is None else np.asarray(xstar, dtype=float)
        self._block = []
        # per distinct point: value, gradient norm, displacement to the next
        # point, distance to xstar and the number of records it fills
        self._f, self._gnorm = array("d"), array("d")
        self._disp, self._dist = array("d"), array("d")
        self._repeats = array("q")
        self.last: Optional[np.ndarray] = None

    def add(self, x: np.ndarray) -> None:
        """Take the iterate of the next record."""
        if x is self.last:
            self._repeats[-1] += 1
            return
        if self.last is not None:
            d = x - self.last
            self._disp.append(math.sqrt(d @ d))
        self._repeats.append(1)
        self._block.append(x)
        self.last = x
        if len(self._block) == REEVALUATE_BLOCK:
            self._flush()

    def _flush(self):
        block, self._block = self._block, []
        X = np.stack(block)
        if self._xstar is not None:
            D = X - self._xstar
            # each row pairwise-summed, as np.add.reduce sums one point's alone
            self._dist.extend(np.sqrt(np.add.reduce(D * D, axis=1)).tolist())
        if self._rows is not None:
            values, G = self._rows(X)
            self._f.extend(np.asarray(values, dtype=float).tolist())
            self._gnorm.extend(np.linalg.norm(G, axis=1).tolist())
        else:
            for x in block:
                self._gnorm.append(np.linalg.norm(self._grad(x)))
                self._f.append(self._value(x))

    def result(self, trace: IterateTrace) -> tuple:
        """``(checked, distances)`` for ``trace``, whose records' iterates
        were added: the trace with every f, grad_norm and displacement
        re-evaluated, and each record's distance to ``xstar`` as an array
        (None without ``xstar``).  The last pending block is evaluated here.
        """
        if self._block:
            self._flush()
        records = trace.records
        repeats = np.frombuffer(self._repeats, dtype=np.int64)
        if int(repeats.sum()) != len(records):
            raise DataError(f"{int(repeats.sum())} iterates were re-evaluated for a "
                            f"trace of {len(records)} records")
        f = np.repeat(np.frombuffer(self._f), repeats).tolist()
        gnorm = np.repeat(np.frombuffer(self._gnorm), repeats).tolist()
        disp = np.zeros(len(records))
        ends = np.cumsum(repeats) - 1
        disp[ends[:-1]] = np.frombuffer(self._disp)
        disp[ends[-1:]] = math.nan      # the final record, if any, took no step
        out = [IterateRecord(k=rec.k, f=fi, grad_norm=gi, step=rec.step,
                             inner_count=rec.inner_count, displacement=di)
               for rec, fi, gi, di in zip(records, f, gnorm, disp.tolist())]
        checked = IterateTrace(
            records=out,
            seed=trace.seed,
            config_digest=trace.config_digest,
            solver_id=trace.solver_id,
            rho=trace.rho,
            theta=trace.theta,
            guaranteed=trace.guaranteed,
            extras=dict(trace.extras, reevaluated=True),
        )
        distances = None
        if self._xstar is not None:
            distances = np.repeat(np.frombuffer(self._dist), repeats)
        return checked, distances


def reevaluate_trace(trace: IterateTrace, iterates,
                     value: Callable[[np.ndarray], float],
                     grad: Callable[[np.ndarray], np.ndarray],
                     rows: Optional[Callable[[np.ndarray], tuple]] = None,
                     ) -> IterateTrace:
    """``trace`` with f/grad_norm/displacement rebuilt from its iterates.

    Certificates should not have to trust solver-logged numbers; this
    recomputes every logged quantity through the supplied oracles (for
    envelope solvers, pass the envelope value/gradient).  ``iterates`` are
    the arrays a solver's ``observe`` hook was handed, one per record
    (``xs = []; trace = run_deala(obj, x0, cfg, xs.append)``); they go
    through one :class:`Reevaluation`, as a run that re-evaluates while it
    proceeds hands it its own.  Any other number of iterates is a
    ``DataError``.
    """
    reevaluation = Reevaluation(value, grad, rows)
    for x in iterates:
        reevaluation.add(x)
    return reevaluation.result(trace)[0]


def _finite_series(trace: IterateTrace):
    if len(trace) == 0:
        raise UsageError("trace is empty")
    f = trace.f_values()
    g = trace.grad_norms()
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
        raise DataError("trace contains non-finite objective values or gradient norms")
    return f, g
