"""Smooth objectives of plain functions, for the tests."""

from dealopt.core import Evaluation, SmoothObjective


def plain(dim, value, grad, **fields) -> SmoothObjective:
    """A ``SmoothObjective`` of a plain ``value(x) -> float`` and
    ``grad(x) -> array``: each point is valued by ``value`` alone and
    completed by ``grad`` at its ``x``."""
    def complete(ev):
        ev.gradient = grad(ev.x)
        return ev
    return SmoothObjective(dim, lambda x: Evaluation(x, value(x)), complete, **fields)
