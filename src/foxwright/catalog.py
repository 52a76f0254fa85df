"""Named parameter sets used throughout the tests, docs, and CLI.

Each one exercises a different regime of the balanced (entire) family:

* ``exp-collapse`` — the measure degenerates to a single endpoint atom, so
  the series collapses to ``e^(2z)/sqrt(pi)`` and the density vanishes
  identically.
* ``twin-quarter`` — first-order degeneracy (``mu = -1``): the endpoint
  atom carries a one-term polynomial correction alongside the density.
* ``double-pole`` — every gamma-ratio pole is a double pole, the densest
  analytic structure the residue route has to handle; the measure is a
  genuine nonnegative density plus an endpoint atom at ``rho = 1``.
* ``identity`` — upper and lower rows cancel, leaving plain ``e^z``.
"""

from __future__ import annotations

from .params import ParameterSet

__all__ = [
    "EXP_COLLAPSE",
    "TWIN_QUARTER",
    "DOUBLE_POLE",
    "IDENTITY",
    "NAMED_SETS",
]

EXP_COLLAPSE = ParameterSet(upper=[(1.0, 1.0)], lower=[(0.5, 0.5), (1.0, 0.5)])
TWIN_QUARTER = ParameterSet(upper=[(1.0, 1.0)], lower=[(0.25, 0.5), (0.25, 0.5)])
DOUBLE_POLE = ParameterSet(upper=[(0.5, 0.5), (1.5, 0.5)], lower=[(1.0, 0.5), (1.0, 0.5)])
IDENTITY = ParameterSet(upper=[(1.0, 1.0)], lower=[(1.0, 1.0)])

NAMED_SETS: dict[str, ParameterSet] = {
    "exp-collapse": EXP_COLLAPSE,
    "twin-quarter": TWIN_QUARTER,
    "double-pole": DOUBLE_POLE,
    "identity": IDENTITY,
}
