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


TRACE_COLUMNS = ("k", "f", "grad_norm", "step", "inner_count", "displacement")
# array typecode of each column: 8-byte integers and doubles
_TYPECODES = {"k": "q", "f": "d", "grad_norm": "d", "step": "d", "inner_count": "q",
              "displacement": "d"}
# rows formatted and written at a time: the Python floats and strings of at
# most one chunk are held at once, whatever the trace's length.  They are
# small objects, whose memory the interpreter keeps for reuse once freed: at
# 4096 rows a chunk, sec51's peak resident set was 1.5 MB higher
WRITE_CHUNK = 256


def column(name: str, values=()) -> array:
    """A new column ``name`` of ``TRACE_COLUMNS`` holding ``values``; a
    numpy array's bytes are taken whole."""
    out = array(_TYPECODES[name])
    if isinstance(values, np.ndarray):
        out.frombytes(np.ascontiguousarray(values, dtype=out.typecode).view(np.uint8))
    else:
        out.extend(values)
    return out


class IterateTrace:
    """Ordered iteration log plus the constants certified for the run.

    The log is six columns, the attributes named in ``TRACE_COLUMNS``, each
    a growable ``array.array`` of 8-byte integers (``k``, ``inner_count``)
    or doubles, with one entry per record: 48 bytes a record and no Python
    object.  A record's ``displacement`` is the norm of the step leaving it,
    NaN on the final record, as its ``step`` is; the iterate itself is not
    kept: a solver hands it to its ``observe`` hook as the record is made.
    ``append`` adds a record; a solver then fills the step fields of the
    last one (``trace.step[-1] = t``), which stay ``(nan, 0, nan)`` on a
    record that takes no step.  ``columns=`` builds a trace on given
    columns, which it takes without copying.  Take no numpy view of a
    column that may still grow: an ``array.array`` with an exported buffer
    refuses to resize; the accessors (``f_values()``...) return copies.
    """

    def __init__(self, seed: Optional[int] = None, config_digest: str = "",
                 solver_id: str = "", rho: float = math.nan, theta: float = math.nan,
                 guaranteed: bool = True, extras: Optional[dict] = None, *,
                 columns: Optional[dict] = None):
        if columns is None:
            columns = {name: column(name) for name in TRACE_COLUMNS}
        if len({len(columns[name]) for name in TRACE_COLUMNS}) != 1:
            raise UsageError("trace columns must have one entry per record")
        for name in TRACE_COLUMNS:
            setattr(self, name, columns[name])
        self.seed, self.config_digest, self.solver_id = seed, config_digest, solver_id
        self.rho, self.theta, self.guaranteed = rho, theta, guaranteed
        self.extras = {} if extras is None else extras

    def __repr__(self):
        return (f"IterateTrace(<{len(self)} records>, solver_id={self.solver_id!r}, "
                f"rho={self.rho!r}, theta={self.theta!r}, guaranteed={self.guaranteed!r})")

    def append(self, k: int, f: float, grad_norm: float, step: float = math.nan,
               inner_count: int = 0, displacement: float = math.nan) -> None:
        """Add one record at the end of every column."""
        self.k.append(k)
        self.f.append(f)
        self.grad_norm.append(grad_norm)
        self.step.append(step)
        self.inner_count.append(inner_count)
        self.displacement.append(displacement)

    def validate(self):
        """Check the columns: strictly increasing k, finite f, nonnegative
        grad_norm and inner_count.  The first record that fails a check
        names the error, its checks taken in that order."""
        k = self.ks()
        checks = (
            (np.diff(k, prepend=-1) <= 0, "iteration indices must be strictly increasing"),
            (~np.isfinite(self.f_values()), "non-finite objective value at k={}"),
            (~(self.grad_norms() >= 0.0), "negative gradient norm at k={}"),
            (self.inner_counts() < 0, "negative inner count at k={}"),
        )
        failing = [(int(np.argmax(bad)), i) for i, (bad, _) in enumerate(checks) if bad.any()]
        if failing:
            index, check = min(failing)
            raise DataError(checks[check][1].format(k[index]))
        return self

    def __len__(self):
        return len(self.k)

    def ks(self) -> np.ndarray:
        return np.array(self.k, dtype=np.int64)

    def f_values(self) -> np.ndarray:
        return np.array(self.f, dtype=float)

    def grad_norms(self) -> np.ndarray:
        return np.array(self.grad_norm, dtype=float)

    def steps(self) -> np.ndarray:
        return np.array(self.step, dtype=float)

    def inner_counts(self) -> np.ndarray:
        return np.array(self.inner_count, dtype=int)

    def displacements(self) -> np.ndarray:
        return np.array(self.displacement, dtype=float)

    def to_csv(self, path):
        """Write the exact column layout k,f,grad_norm,step,inner_count,displacement.

        The bytes are those of ``csv.writer`` (comma-separated, CRLF line
        ends; no field needs quoting), written ``WRITE_CHUNK`` rows at a
        time by ``write_rows``.
        """
        def tail(f, grad_norm, step, inner_count, displacement):
            return (f"{_fmt(f)},{_fmt(grad_norm)},{_fmt(step)},{inner_count},"
                    f"{_fmt(displacement)}\r\n")
        with open(path, "w", newline="") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\r\n")
            write_rows(fh, "", self.k, [getattr(self, name) for name in TRACE_COLUMNS[1:]],
                       tail)

    @classmethod
    def from_csv(cls, path, **meta) -> "IterateTrace":
        """Read a trace written by ``to_csv``; its records are validated here,
        so a malformed file raises ``DataError`` before anything reads it."""
        trace = cls(**meta)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != TRACE_COLUMNS:
                raise DataError(f"trace CSV must start with header {','.join(TRACE_COLUMNS)}")
            for row in reader:
                try:
                    k, f, gn, step, inner, disp = row
                    trace.append(int(k), _parse(f), _parse(gn), _parse(step), int(inner),
                                 _parse(disp))
                except (ValueError, OverflowError):
                    raise DataError(f"malformed trace row: {row!r}") from None
        return trace.validate()


def write_rows(fh, prefix: str, ks, columns, tail) -> None:
    """Write one line ``{prefix}{k},{tail}`` per entry ``k`` of ``ks``,
    ``WRITE_CHUNK`` rows at a time, so that the formatted rows of one chunk
    at most are held at once.

    ``columns`` are equal-length sequences of 8-byte numbers (``array.array``
    columns or numpy arrays, none of them growing); ``tail(*fields)`` formats
    one row's fields, line end included.  A row whose fields repeat the
    previous row's bit for bit, as a replayed fixed point's do, reuses its
    tail: so ``0.0`` and ``-0.0`` differ, and a NaN matches a NaN of the
    same bits.
    """
    last = None
    for start in range(0, len(ks), WRITE_CHUNK):
        stop = min(start + WRITE_CHUNK, len(ks))
        lo = max(start - 1, 0)
        # each slice is a copy or a view of a column that does not grow
        parts = [np.asarray(col[lo:stop]) for col in columns]
        bits = np.stack([part.view(np.int64) for part in parts])
        fresh = np.ones(stop - lo, dtype=bool)
        fresh[1:] = (bits[:, 1:] != bits[:, :-1]).any(axis=0)
        fresh = fresh[start - lo:]
        values = [part[start - lo:][fresh].tolist() for part in parts]
        # tails[0] is the last tail of the previous chunk, which the leading
        # repeats of this chunk reuse
        tails = [last] + [tail(*row) for row in zip(*values)]
        last = tails[-1]
        fh.writelines(f"{prefix}{k},{tails[j]}" for k, j in zip(
            ks[start:stop].tolist(), np.cumsum(fresh).tolist()))


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
    is one call; without it, each point is one call of ``evaluate``, whose
    result unpacks with the value and the gradient first (a ``value_grad``
    pair, or an ``EnvelopeEval``).  Only the per-point results are kept
    (value, gradient norm, displacement to the next point and, given
    ``xstar``, the distance to it), with the pending block and the last
    iterate (``last``).
    """

    def __init__(self, evaluate: Callable[[np.ndarray], tuple],
                 rows: Optional[Callable[[np.ndarray], tuple]] = None,
                 xstar=None):
        self._evaluate, self._rows = evaluate, rows
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
                f, g, *_ = self._evaluate(x)
                self._gnorm.append(np.linalg.norm(g))
                self._f.append(f)

    def result(self, trace: IterateTrace) -> tuple:
        """``(checked, distances)`` for ``trace``, whose records' iterates
        were added: a trace of the columns alone, with every f, grad_norm
        and displacement re-evaluated and none of ``trace``'s constants or
        extras, and each record's distance to ``xstar`` as an array
        (None without ``xstar``).  The last pending block is evaluated here.

        ``checked``'s ``f`` and ``grad_norm`` columns are the re-evaluated
        values, expanded to one per record only where a replayed record
        repeats its predecessor's iterate (else they are this re-evaluation's
        own arrays), and its ``displacement`` column is new; its ``k``,
        ``step`` and ``inner_count`` are ``trace``'s own columns.  Shared
        columns are not copied and no record is built, so take the result
        once the last iterate is added.
        """
        if self._block:
            self._flush()
        repeats = np.frombuffer(self._repeats, dtype=np.int64)
        if int(repeats.sum()) != len(trace):
            raise DataError(f"{int(repeats.sum())} iterates were re-evaluated for a "
                            f"trace of {len(trace)} records")
        disp = np.zeros(len(trace))
        ends = np.cumsum(repeats) - 1
        disp[ends[:-1]] = np.frombuffer(self._disp)
        disp[ends[-1:]] = math.nan      # the final record, if any, took no step
        if len(self._f) == len(trace):
            # no record repeats its predecessor's iterate: a value per point
            # is a value per record
            f, gnorm = self._f, self._gnorm
        else:
            f = column("f", np.repeat(np.frombuffer(self._f), repeats))
            gnorm = column("grad_norm", np.repeat(np.frombuffer(self._gnorm), repeats))
        checked = IterateTrace(columns={
            "k": trace.k, "f": f, "grad_norm": gnorm, "step": trace.step,
            "inner_count": trace.inner_count, "displacement": column("displacement", disp)})
        distances = None
        if self._xstar is not None:
            distances = np.repeat(np.frombuffer(self._dist), repeats)
        return checked, distances


def reevaluate_trace(trace: IterateTrace, iterates,
                     value: Callable[[np.ndarray], float],
                     grad: Callable[[np.ndarray], np.ndarray],
                     rows: Optional[Callable[[np.ndarray], tuple]] = None,
                     ) -> IterateTrace:
    """``trace``'s columns with f/grad_norm/displacement rebuilt from its
    iterates, as ``Reevaluation.result`` gives them.

    Certificates should not have to trust solver-logged numbers; this
    recomputes every logged quantity through the supplied oracles, ``grad``
    and then ``value`` at each point when no ``rows`` is given (for envelope
    solvers, pass the envelope value/gradient).  ``iterates`` are the arrays
    a solver's ``observe`` hook was handed, one per record
    (``xs = []; trace = run_deala(obj, x0, cfg, xs.append)``); they go
    through one :class:`Reevaluation`, as a run that re-evaluates while it
    proceeds hands it its own.  Any other number of iterates is a
    ``DataError``.
    """
    def evaluate(x):
        g = grad(x)
        return value(x), g
    reevaluation = Reevaluation(evaluate, rows)
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
