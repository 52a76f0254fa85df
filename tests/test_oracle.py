"""The measure representation against an mpmath series oracle.

F(z) = sum_k ratio(k) z^k / k! is summed in mpmath with 60 digits to spare
beyond the cancellation: for z < 0 the terms grow to about e^(rho |z|)
before they decay, so the working precision adds rho |z| / ln 10 digits.
Every scale in these sets is 1/2 or 1, so each gamma factor steps from k to
k + 2 by a rising factorial and the terms come from two exact recurrences.
"""

import math

import pytest

from foxwright import derive_constants, eval_via_representation
from foxwright.catalog import DOUBLE_POLE, TWIN_QUARTER

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
