"""Generalized-descent solvers with per-run certificates.

Solvers log every iteration to an :class:`~dealopt.core.IterateTrace`
carrying the constants (rho, theta) of the per-iteration decrease
f(x^{k+1}) <= f(x^k) - rho ||grad f(x^k)||^theta they are expected to
satisfy; certificate functions re-check that inequality, the displacement
and min-gradient bounds, and the predicted linear/sublinear rates and
iteration-count bounds.
"""

from .core import (CapabilityError, CertificateReport, CompositeObjective,
                   DataError, Evaluation, HolderInfo, IterateTrace, KLInfo,
                   NumericalError, Reevaluation, SmoothObjective, UsageError,
                   certify_descent, certify_displacement, min_grad_bound_check,
                   reevaluate_trace)
from .directions import DirectionRule, beta_for_holder, generalize, validate_sufficient_descent
from .solvers import ArmijoParams, DealConfig, armijo_bound, dealc_step_size, run_deala, run_dealc
from .boosted import BoostedConfig, run_bhippa, run_bpga
from .envelopes import (AbsPower, L1Norm, SeparableProx, fbe_value,
                        fbe_value_grad, forward_backward_map, home_value,
                        home_value_grad, prox_home_separable, prox_l1,
                        prox_oracle_check)
from .problems import (LassoProblem, LeastPProblem, PowerAbsProblem,
                       QuadraticProblem, generate_problem, reference_optimum)
from .analysis import (RateReport, complexity_K, estimate_kl_exponent,
                       fit_linear_rate, verify_complexity)

__version__ = "0.1.0"
