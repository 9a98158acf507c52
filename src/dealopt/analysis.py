"""Rate fitting, gradient-dominance exponent estimation, and iteration-count
bound verification for certified traces.

The theory for a run with certified (rho, theta) and gradient-dominance
constants (vartheta, tau) predicts

  theta = 1/vartheta:  per-step gap contraction by q = 1 - rho / tau^theta,
  theta > 1/vartheta:  gap envelope  mu * k^(-1/(vartheta*theta - 1)),

and iteration counts bounded through the operator
K(x, y) = ceil((y log(1/eps) + log x) / log(1/q) + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import CertificateReport, IterateTrace, UsageError, _verdict

GAP_FLOOR_FACTOR = 1e3 * float(np.finfo(float).eps)
# the rate fits read the trailing half of the alive gaps
TAIL_FRACTION = 0.5


def gap_floor(fstar: float) -> float:
    """Smallest gap treated as numerically alive in fits and ratio checks."""
    return GAP_FLOOR_FACTOR * max(1.0, abs(fstar))


def complexity_K(x: float, y: float, eps: float, q: float) -> int:
    """ceil((y log(1/eps) + log x) / log(1/q) + 1), clamped below at 1."""
    if not x > 0.0:
        raise UsageError("need x > 0")
    return _complexity_K_log(math.log(x), y, eps, q)


def _complexity_K_log(log_x: float, y: float, eps: float, q: float) -> int:
    """``complexity_K`` from log x, for an x beyond the float range."""
    if not (y > 0.0 and eps > 0.0):
        raise UsageError("need y, eps > 0")
    if not 0.0 < q < 1.0:
        raise UsageError(f"q must lie in (0, 1), got {q}")
    val = (y * math.log(1.0 / eps) + log_x) / math.log(1.0 / q) + 1.0
    return max(int(math.ceil(val)), 1)


@dataclass
class RateReport:
    """Fitted convergence behavior of one trace tail."""

    regime: str = "inconclusive"      # linear | sublinear | inconclusive
    q_hat_max: Optional[float] = None
    q_hat_ls: Optional[float] = None
    q_theory: Optional[float] = None
    mu_hat: Optional[float] = None
    decay_hat: Optional[float] = None
    vartheta_hat: Optional[float] = None
    tail_window: tuple = (0, 0)
    n_tail: int = 0
    residual_geometric: Optional[float] = None
    residual_power: Optional[float] = None

    def as_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


def _tail(trace: IterateTrace, fstar: float):
    """(ks, gaps) for the trailing ``TAIL_FRACTION`` of numerically alive gaps."""
    ks = trace.ks().astype(float)
    gaps = trace.f_values() - fstar
    alive = gaps > gap_floor(fstar)
    ks, gaps = ks[alive], gaps[alive]
    start = len(gaps) - max(int(math.ceil(TAIL_FRACTION * len(gaps))), 2)
    start = max(start, 0)
    return ks[start:], gaps[start:]


def _line_fit(x, y):
    """Least-squares line y = slope x + intercept: (slope, intercept, mean
    squared residual).  The three fits of a rate report are this one."""
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.mean((slope * x + intercept - y) ** 2))
    return float(slope), float(intercept), residual


def fit_linear_rate(trace: IterateTrace, fstar: float, *,
                    rho: Optional[float] = None, theta: Optional[float] = None,
                    tau: Optional[float] = None) -> RateReport:
    """Fit a geometric contraction to the tail of the gap sequence.

    q_hat_max is the largest consecutive gap ratio on the tail; q_hat_ls the
    least-squares geometric ratio.  The regime is classified by comparing the
    residuals of the geometric fit (log gap vs k) and the power-law fit
    (log gap vs log k): linear needs q_hat_max < 1 and the geometric model to
    fit at least as well.  Fewer than five alive tail points is inconclusive
    by construction (ratios are still reported when two points exist).  The
    report also carries ``estimate_kl_exponent``'s vartheta_hat.
    """
    report = RateReport()
    # first, so that its working set and the tail's are not held at once
    kl_est = estimate_kl_exponent(trace, fstar)
    if kl_est is not None:
        report.vartheta_hat = kl_est.vartheta_hat
    if rho is not None and theta is not None and tau is not None:
        q_theory = 1.0 - rho / tau ** theta
        if 0.0 < q_theory < 1.0:
            report.q_theory = q_theory
    ks, gaps = _tail(trace, fstar)
    report.n_tail = len(gaps)
    if len(gaps) >= 2:
        report.tail_window = (int(ks[0]), int(ks[-1]))
        ratios = gaps[1:] / gaps[:-1]
        report.q_hat_max = float(ratios.max())
        logg = np.log(gaps)
        slope, _, report.residual_geometric = _line_fit(ks, logg)
        report.q_hat_ls = math.exp(slope)
        # the power law log gap = log mu - decay log k, over the k > 0
        pos = ks > 0
        if pos.sum() >= 2:
            slope, intercept, report.residual_power = _line_fit(np.log(ks[pos]), logg[pos])
            report.mu_hat, report.decay_hat = math.exp(intercept), -slope
    if report.n_tail >= 5 and report.q_hat_max is not None:
        if report.q_hat_max >= 1.0:
            report.regime = "inconclusive"
        elif (report.residual_power is None
              or report.residual_geometric <= report.residual_power):
            report.regime = "linear"
        else:
            report.regime = "sublinear"
    return report


@dataclass
class KLEstimate:
    vartheta_hat: float
    residual: float
    n: int


def estimate_kl_exponent(trace: IterateTrace, fstar: float) -> Optional[KLEstimate]:
    """Slope of log||grad|| against log(gap) over the whole trace: the
    exponent at which the gradient-dominance inequality is near-tight.

    A heuristic estimator (the inequality alone bounds only one side);
    returns None when the alive records are degenerate.
    """
    gaps = trace.f_values() - fstar
    gns = trace.grad_norms()
    keep = (gaps > gap_floor(fstar)) & (gns > 0.0)
    log_gaps, log_gns = np.log(gaps[keep]), np.log(gns[keep])
    # the fit below is the largest working set of a run's certificates: hold
    # only its inputs through it
    del gaps, gns, keep
    if len(log_gaps) < 2 or np.ptp(log_gaps) < 1e-12:
        return None
    slope, _, residual = _line_fit(log_gaps, log_gns)
    return KLEstimate(vartheta_hat=slope, residual=residual, n=len(log_gaps))


@dataclass
class BoundCheck:
    """One iteration-count criterion, ``vacuous`` when its bound is at least
    the trace's last k, so that it cannot fail within the trace."""

    criterion: str
    measured: Optional[int]
    bound: Optional[int]
    passed: Optional[bool]
    note: str = ""
    vacuous: bool = False

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class ComplexityReport:
    q_theory: float
    eps: float
    checks: list = field(default_factory=list)
    skipped: bool = False
    reason: str = ""

    @property
    def passed(self) -> Optional[bool]:
        """All verdicts passed; None when no criterion reached a verdict.
        A skipped report (q outside (0, 1)) checks no criterion, so it is
        None too: vacuous, not a pass."""
        verdicts = [c.passed for c in self.checks if c.passed is not None]
        return all(verdicts) if verdicts else None

    def as_dict(self) -> dict:
        return {"q_theory": self.q_theory, "eps": self.eps, "skipped": self.skipped,
                "reason": self.reason, "passed": self.passed,
                "checks": [c.as_dict() for c in self.checks]}


def verify_complexity(trace: IterateTrace, fstar: float, rho: float, theta: float,
                      tau: float, eps: float, *, distances=None,
                      c: Optional[float] = None) -> ComplexityReport:
    """Compare measured iteration counts against their closed-form bounds.

    Three criteria: the first iteration with gap <= eps versus K(gap0, 1);
    the first with gradient norm <= eps versus K(gap0/rho, theta); and, when
    the distance ||x^k - x*|| of every record to a reference minimizer
    (``distances``, as ``core.Reevaluation`` measures them) and the
    displacement constant c are available, the first with ||x^k - x*|| <= eps
    versus K(s gap0/rho, theta/(theta-1)) with
    s = (c/(1-q^((theta-1)/theta)))^(theta/(theta-1)).
    """
    if min(rho, tau, eps) <= 0.0 or theta <= 1.0:
        raise UsageError("need rho, tau, eps > 0 and theta > 1")
    q = 1.0 - rho / tau ** theta
    if not 0.0 < q < 1.0:
        return ComplexityReport(q_theory=q, eps=eps, skipped=True,
                                reason=f"q = 1 - rho/tau^theta = {q:g} is outside (0, 1); "
                                       "bounds are vacuous")
    f = trace.f_values()
    g = trace.grad_norms()
    ks = trace.ks()
    gap0 = f[0] - fstar
    last = int(ks[-1])
    report = ComplexityReport(q_theory=q, eps=eps)
    if gap0 <= 0.0:
        report.checks.append(BoundCheck("gap", 0, 1, True, "started at the optimum",
                                        vacuous=1 >= last))
        return report

    def criterion(name: str, reached, bound: int):
        idx = np.flatnonzero(reached)
        measured = int(ks[idx[0]]) if idx.size else None
        report.checks.append(BoundCheck(
            name, measured, bound,
            None if measured is None else measured <= bound,
            "" if measured is not None else "criterion not reached within the trace",
            vacuous=bound >= last))

    criterion("gap", f - fstar <= eps, complexity_K(gap0, 1.0, eps, q))
    criterion("grad", g <= eps, complexity_K(gap0 / rho, theta, eps, q))
    if distances is not None and c is not None:
        distances = np.asarray(distances, dtype=float)
        if distances.shape != f.shape:
            raise UsageError(f"need one distance per record, got {distances.shape[0]} "
                             f"for {len(f)} records")
        y_x = theta / (theta - 1.0)
        r = 1.0 - q ** ((theta - 1.0) / theta)
        try:
            b_x = complexity_K((c / r) ** y_x * gap0 / rho, y_x, eps, q)
        except OverflowError:
            # s gap0 / rho is beyond the float range: the same bound from its log
            log_x = y_x * (math.log(c) - math.log(r)) + math.log(gap0) - math.log(rho)
            b_x = _complexity_K_log(log_x, y_x, eps, q)
        criterion("iterate", distances <= eps, b_x)
    return report


def per_step_ratio_check(trace: IterateTrace, fstar: float, q_theory: float,
                         rel_tol: float = 1e-10) -> CertificateReport:
    """Verify gap_{k+1} <= q * gap_k for every consecutive pair above the floor.

    The report's ``worst_violation`` is the largest ratio gap_{k+1}/gap_k and
    ``worst_index`` its k; each ratio is allowed up to q * (1 + rel_tol).
    """
    if not 0.0 < q_theory < 1.0:
        raise UsageError("q_theory must lie in (0, 1)")
    gaps = trace.f_values() - fstar
    # not "> floor": a NaN gap is checked, and its NaN ratio fails
    alive = np.flatnonzero(~(gaps[:-1] <= gap_floor(fstar)))
    return _verdict("per_step_ratio", gaps[alive + 1] / gaps[alive],
                    q_theory * (1.0 + rel_tol), alive,
                    {"q_theory": q_theory, "rel_tol": rel_tol}, None)
