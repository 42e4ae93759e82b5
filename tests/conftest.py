"""Helpers shared by the test modules."""

import numpy as np

from asode.problems import SplitProblem, make_split


def split_problem(name: str, full, jac, y0, h0: float, t_end: float = 1.0,
                  t0: float = 0.0, exact=None) -> SplitProblem:
    """The SplitProblem of full and jac from y0: n is y0's length, and phi
    and g are the split make_split derives from full and jac."""
    y0 = np.asarray(y0, dtype=float)
    phi, g = make_split(full, jac)
    return SplitProblem(name=name, n=len(y0), phi=phi, g=g, jac=jac,
                        full=full, y0=y0, t0=t0, t_end=t_end, h0=h0,
                        exact=exact)
