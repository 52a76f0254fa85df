"""The measure representation against an mpmath series oracle.

F(z) = sum_k ratio(k) z^k / k! is summed in mpmath with 60 digits to spare
beyond the cancellation: for z < 0 the terms grow to about e^(rho |z|)
before they decay, so the working precision adds rho |z| / ln 10 digits.
Every scale in these sets is 1/2 or 1, so each gamma factor steps from k to
k + 2 by a rising factorial and the terms come from two exact recurrences.
"""

import math

import numpy as np
import pytest
from conftest import load_file

from foxwright import (
    ParameterSet,
    cm_check,
    derive_constants,
    eval_via_representation,
)
from foxwright.catalog import DOUBLE_POLE, NAMED_SETS, TWIN_QUARTER
from foxwright.representations import _power_kernel, _stieltjes_integral
from foxwright.series import _atoms

mp = pytest.importorskip("mpmath")

_DIGITS = 60


def _series_oracle(params, z):
    rho = derive_constants(params).rho
    with mp.workdps(_DIGITS + int(rho * abs(z) / math.log(10.0)) + 10):
        zm = mp.mpf(z)

        def coeff(k):
            num = mp.fprod(mp.gamma(a + k * s) for a, s in params.upper)
            return num * mp.fprod(mp.rgamma(b + k * s) for b, s in params.lower)

        def rising(row, k):
            # prod over the row of gamma(c + (k+2)s) / gamma(c + ks), 2s in {1, 2}
            return mp.fprod(mp.mpf(c + k * s) + i for c, s in row for i in range(round(2 * s)))

        def step(k):
            # ratio(k + 2) / ratio(k) * z^2 / ((k + 1)(k + 2))
            return rising(params.upper, k) / rising(params.lower, k) * zm**2 / ((k + 1) * (k + 2))

        terms = [coeff(0), coeff(1) * zm]
        total = terms[0] + terms[1]
        k = 0
        eps = mp.mpf(10) ** (-_DIGITS)
        while k < 2 * rho * abs(z) + 10 or max(abs(x) for x in terms) > eps * abs(total):
            terms = [terms[j] * step(k + j) for j in (0, 1)]
            total += terms[0] + terms[1]
            k += 2
        return total


@pytest.mark.parametrize("params", [DOUBLE_POLE, TWIN_QUARTER], ids=["double-pole", "twin-quarter"])
@pytest.mark.parametrize("z", [-400.0, -40.0, -5.0, 0.0, 5.0])
def test_representation_matches_series_oracle(params, z):
    want = _series_oracle(params, z)
    got = eval_via_representation(params, z).value
    assert abs(got - float(want)) <= 1e-11 * abs(float(want))


# mu = -2: the atoms carry the first and second derivatives of a kernel
_M2 = ParameterSet([(1.0, 1.0)], [(0.25, 0.5), (-0.75, 0.5)])


@pytest.mark.parametrize("params", [TWIN_QUARTER, _M2], ids=["m=1", "m=2"])
@pytest.mark.parametrize("sigma", [1.0, 2.5, 4.0])
@pytest.mark.parametrize("w", [0.2, 0.5, 0.9])
def test_power_kernel_route_matches_lifted_series_oracle(params, sigma, w):
    """The sigma-lifted series at -z, from the oracle, against the Stieltjes
    integral plus gamma(sigma) times the atoms on (1+tz)^(-sigma), at rho z = w."""
    rho = derive_constants(params).rho
    lifted = ParameterSet([(sigma, 1.0), *params.upper], list(params.lower))
    want = float(_series_oracle(lifted, -w / rho))
    z = np.array([w / rho])
    (integral,) = _stieltjes_integral(params, sigma, z)[0]
    (atoms,) = _atoms(params, _power_kernel(rho, sigma, z)[1])
    got = math.gamma(sigma) * (integral + atoms)
    assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("name", sorted(NAMED_SETS))
def test_cm_table_from_the_measure_matches_series_oracle(name):
    """The table cm-check reads for a represented set, one measure pass per
    grid, against perfbench's 60-digit series oracle at the benchmark's
    cm-check grids."""
    # perfbench's modules, which import no foxwright
    oracle, inputs = load_file("perfbench/oracle.py"), load_file("perfbench/inputs.py")
    params = NAMED_SETS[name]
    series = oracle.SeriesOracle(*inputs.CATALOG[name])
    grids = [inv["grid"] for inv in inputs.identity_cli(4)["invocations"]
             if inv["kind"] == "cm" and inv["params"] == name]
    assert grids
    for grid in grids:
        tables = []

        def f(xs):
            values = eval_via_representation(params, -xs).value
            tables.append((xs, values))
            return values

        cm_check(f, grid)
        ((xs, got),) = tables
        want = np.array([float(series.value(-x)) for x in xs.tolist()])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
