"""Evaluation of the representing density on (0, rho).

For a balanced parameter set (sum of upper scales == sum of lower scales)
with mu equal to a non-positive integer -m, the gamma ratio splits into

    gamma_ratio(s) = integral_0^rho H(t) t^(s-1) dt
                     + eta * rho^s * (l_0 s^m + l_1 s^(m-1) + ... + l_m)

where H is the regular density this module computes and the polynomial part
is the Mellin transform of an atom (plus derivative atoms) sitting at
t = rho.  The atoms are always handled in closed form, by one functional
on each kernel (``series._atoms``; t^s in ``MeasureEvaluator.atom_mellin``);
nothing in this file ever tries to integrate across them.

H has two series, one converging at each end of the support:

* Residue route, away from rho: H(t) is the sum of the residues of
  gamma_ratio(s) t^(-s) at the poles s = -(alpha_i + n)/A_i of the
  numerator gammas.  Poles closer than 1e-3 of the smallest ladder spacing
  form one group with nodes s_0..s_(m-1), coincident ones included.  A
  midpoint rule on a circle around the group (spectrally accurate) gives
  its Newton moments c_k = (1/2 pi i) oint ratio(s) prod_(j<k) (s - s_j) ds
  once per evaluator.  The rows are real, so ratio(conj s) = conj ratio(s),
  and the centres and nodes are real: each circle evaluates ratio only at
  its nodes with theta in (0, pi], and takes each node below the real axis
  as the conjugate of its mirror image above it.  The group's residues sum to
  sum_k c_k f[s_0..s_k] for f(s) = t^(-s) (McCurdy, Ng & Parlett, Math.
  Comp. 43, 1984).  The divided differences come from the Taylor series of
  exp about the group's centre, so they do not cancel however close the
  nodes are, and reduce to c_k (-ln t)^k / k! when the nodes coincide.  Per
  group that is t^centre times a fixed power series in ln t: no circle sum
  of t^(-s) is taken, so nothing aliases at small t.  The terms decay like
  (t/rho)^sigma.

* Endpoint route, away from 0: H(t) = eta sum_r l_r u^(mu+r-1) / gamma(mu+r)
  with u = ln(rho/t) and the l_r of ``correction_coeffs`` through r = 40
  (Buhring, SIAM J. Math. Anal. 23, 1992), whose q_n come from one product
  of a cached Bernoulli coefficient matrix with a vector of powers per
  gamma factor.  Terms with mu + r a non-positive integer are the endpoint
  atoms and are left out.  It converges in u with a radius that depends on
  the set.

Each route reports an error estimate: its last two terms (so that a
vanishing coefficient does not hide the tail) plus its rounding floor
eps * sum |terms|.  The endpoint estimate falls as t grows, so one cut
per evaluator follows from it: the evaluator builds its residue table
once, so that its tail is at the rounding level just above the last t (on
a rho/32 grid) where the endpoint estimate exceeds 16 eps |H|, or as far
as the node budget allows.  Out to the table's reach AUTO and the
integration rule take, per t, the route with the smaller estimate; above
it the endpoint series serves.  No switch point is measured or configured.

A parameter set whose ratio IS its polynomial part (upper == lower rows,
duplication- or multiplication-formula collapses) has H identically zero.
That degeneracy is read off the residue table: every Newton moment of the
groups within _TABLE_STEP of the first pole sits at rounding level against
its circle's largest |ratio(s)| * radius.  Both routes then return exact zeros.

Every integral against the measure, integral_0^rho fn(t) H(t) dt, runs on
one nested tanh-sinh rule (``quadrature.tanh_sinh``) cached on the
evaluator.  The substitution makes the integrand decay double-exponentially
in x at both ends, which absorbs the algebraic behaviour of H at 0 and at
rho alike.  Each level of the rule stores only its new nodes t_i with their
weights w_i H(t_i), so the density is evaluated once per node for the life
of the evaluator and an integral is a dot product fn(t) @ (w H) per level
of ``quadrature.integrate_levels``.  The rule is built lazily, level by
level, the first time an integral needs it; evaluators that only serve
density calls never build it.  Its H values come from the same per-t route
choice as AUTO, with u = ln(rho/t) taken from the complement of the
substitution, so nodes where t rounds onto rho keep an exact u.
"""

from __future__ import annotations

import enum
import math
from typing import Callable

import numpy as np

from .errors import ConstraintError, DomainError, NonConvergentError, OutsideDomainError
from .params import ParameterSet, correction_coeffs, derive_constants
from .quadrature import integrate_levels, tanh_sinh, tanh_sinh_reach
from .series import IdentityRecord, _atoms, _record
from .special import log_gamma_complex_vec

__all__ = [
    "HfunMethod",
    "MeasureEvaluator",
    "get_evaluator",
    "hfun_nonneg_scan",
]

_EPS = float(np.finfo(float).eps)
_TOL = 1e-9  # accuracy the residue table and the integration rule aim at
_NODE_BUDGET = 8000  # circle nodes across all pole groups of the residue table
_CIRCLE_NODES = 32
_GROUP_GAP = 1e-3  # of the smallest ladder spacing: closer poles share a circle
_TABLE_STEP = 10.0  # sigma step of the residue table's growth and degeneracy check
_DEGENERATE_RATIO = 1e-12
_ENDPOINT_ORDER = 40
# the endpoint series alone serves where its estimate is below this many eps |H|
_ENDPOINT_ULPS = 16.0
_RESIDUE_CHUNK = 128  # points per (points x groups) block of the residue sum
# tanh-sinh rule on (0, rho): the smallest node sits at t = rho * _DE_TINY,
# or lower when H ~ t^a decays slowly near 0 (a = min shift/scale), so that
# the tail t^a / a left out stays below 1e-3 tol; never below rho * _DE_FLOOR,
# where 1/t and t H still fit in a double.  The same holds for rho - t when
# H ~ (rho - t)^(mu - 1) with 0 < mu < 1.
_DE_TINY = 1e-29
_DE_FLOOR = 1e-300


class HfunMethod(enum.Enum):
    RESIDUE_SERIES = "residue-series"
    ENDPOINT_SERIES = "endpoint-series"
    AUTO = "auto"


class MeasureEvaluator:
    """Cached per-parameter-set machinery for H(t) and its integrals."""

    def __init__(self, params: ParameterSet):
        self.params = params
        self.constants = derive_constants(params)
        # mu > 0 has a pure density (no endpoint atoms); mu = -m adds the
        # polynomial atom part.  Negative non-integer mu would need
        # fractional-derivative atoms, which nothing downstream wants.
        if not self.constants.represented:
            raise ConstraintError(
                "density machinery requires balanced scale sums and mu > 0 or mu equal "
                f"to a non-positive integer (delta = {self.constants.delta:.3g}, "
                f"mu = {self.constants.mu:.6g})"
            )
        self.m = self.constants.m_order
        self.mu = self.constants.mu
        self.rho = self.constants.rho
        self.eta = self.constants.eta
        self._first = -self.constants.gamma_abscissa  # smallest pole abscissa

        # endpoint series H = u^power * sum_i coef_i u^i, from the l_r with
        # r = m+1..order (r <= m are the atoms), or r = 0..order when mu > 0
        # at least the two terms the tail estimate reads
        order = max(_ENDPOINT_ORDER, (self.m or 0) + 2)
        ell = correction_coeffs(params, order)
        lead = 0 if self.m is None else self.m + 1
        self._end_power = self.mu + lead - 1.0
        self._end_coef = np.array(
            [self.eta * ell[r] / math.gamma(self.mu + r) for r in range(lead, order + 1)]
        )

        # the benchmark counts work as _res_nodes_used + _tau.size; every node
        # is spent on the residue table, so _tau stays empty
        self._tau = np.empty(0)

        # integration state, filled lazily: tanh-sinh levels of (t_i, w_i H(t_i))
        # and the nonnegativity scan
        self._rule: list[tuple[np.ndarray, np.ndarray]] = []
        self._scan: IdentityRecord | None = None

        # The residue table AUTO and the rule read.  The endpoint estimate
        # falls as t grows: on the probes t = k rho / 32 take the first one
        # above the last where it exceeds _ENDPOINT_ULPS eps |H|, and build
        # the table so that its tail there is at the rounding level.  Group
        # g's residues at t sum to t^centres[g] sum_n coeffs[g, n] (-ln t)^n.
        probe = self.rho * np.arange(1, 32) / 32.0
        value, tail, mass = self._endpoint(np.log1p((self.rho - probe) / probe))
        miss = np.flatnonzero(tail + _EPS * mass > _ENDPOINT_ULPS * _EPS * np.abs(value))
        cut = probe[min(miss[-1] + 1, probe.size - 1)] if miss.size else probe[0]
        sigma = self._table_sigma(float(cut), _EPS)
        self._res_centres, self._res_coeffs, scale, self._res_nodes_used, exhausted = (
            self._build_table(sigma)
        )
        if self._res_centres.size == 0:
            raise NonConvergentError("the first pole group needs more than the node budget")
        # the largest sigma target RESIDUE_SERIES reads this table for (an
        # exhausted table cannot grow, so every one), and the table's reach:
        # the t where its tail meets 1e-3 tol
        self._res_sigma = math.inf if exhausted else sigma
        span = (float(self._res_centres[-1]) if exhausted else sigma) - self._first
        self._reach = self.rho * (1e-3 * _TOL) ** (1.0 / span) if span > 0 else 0.0
        leading = self._res_centres <= self._first + _TABLE_STEP
        self.degenerate = bool(np.all(scale[leading] <= _DEGENERATE_RATIO))

    def _log_ratio(self, s: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(s, dtype=complex)
        for a, sc in self.params.upper:
            acc = acc + log_gamma_complex_vec(sc * s + a)
        for b, sc in self.params.lower:
            acc = acc - log_gamma_complex_vec(sc * s + b)
        return acc

    # ------------------------------------------------------------------
    # endpoint route
    # ------------------------------------------------------------------

    def _endpoint(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(H, |last two terms|, sum |terms|) of the endpoint series at u = ln(rho/t)."""
        value = np.zeros_like(u)
        mass = np.zeros_like(u)
        for coef in self._end_coef[::-1]:
            value = value * u + coef
            mass = mass * u + abs(coef)
        lead = u**self._end_power
        n = self._end_coef.size
        last = np.abs(self._end_coef[-2:])
        tail = lead * u ** (n - 2) * (last[0] + last[1] * u)
        return lead * value, tail, lead * mass

    # ------------------------------------------------------------------
    # residue route
    # ------------------------------------------------------------------

    def _table_sigma(self, t_max: float, target: float) -> float:
        """The pole abscissa where (t_max/rho)^(sigma - first) falls below
        target, rounded up to a multiple of _TABLE_STEP so that nearby t_max
        values share one table."""
        sigma = self._first + math.log(target) / math.log(t_max / self.rho)
        return _TABLE_STEP * math.ceil(sigma / _TABLE_STEP)

    def _build_table(self, sigma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, bool]:
        """Residue table of every pole group with centre up to sigma:
        (centres, power-series rows, moment scales, circle nodes, exhausted).

        A group's scale is max |c_k| / (max |ratio| * radius) on its circle.
        The table is exhausted, and ends early, when the groups' circle
        nodes would overrun ``_NODE_BUDGET``, or at the sigma where one
        upper row alone has more poles than the budget has circles.
        """
        budget = _NODE_BUDGET
        cap = min((a + budget // _CIRCLE_NODES) / sc for a, sc in self.params.upper)
        exhausted = sigma > cap
        sigma = min(sigma, cap)
        # one ladder spacing past the target, so the last group's neighbour is known
        spacing = min(1.0 / sc for _, sc in self.params.upper)
        limit = sigma + spacing
        # the ladders (a + n)/sc up to limit, counted with a spare n against rounding
        poles = np.sort(np.concatenate([
            (a + np.arange(max(math.floor(limit * sc - a) + 2, 0))) / sc
            for a, sc in self.params.upper
        ]))
        poles = poles[poles <= limit]
        # a pole within _GROUP_GAP spacing of the one before joins its group;
        # row g of members holds group g's poles, padded with zeros
        start = np.flatnonzero(np.diff(poles, prepend=-math.inf) > _GROUP_GAP * spacing)
        size = np.diff(start, append=poles.size)
        inside = np.arange(np.max(size)) < size[:, None]
        members = np.zeros(inside.shape)
        members[inside] = poles
        # cumsum adds each row's poles in order (and its zero padding), on every Python
        centre = np.cumsum(members, axis=1)[:, -1] / size
        # the groups centred up to sigma, a prefix; one past it may sit at
        # limit, where its circle's radius would be 0
        g = int(np.searchsorted(centre, sigma, side="right"))
        centre = centre[:g]
        half = np.max(np.where(inside[:g], np.abs(members[:g] - centre[:, None]), 0.0), axis=1)
        left = centre - np.append(-math.inf, poles[start[1:g] - 1])
        right = np.append(poles[start[1:]], limit)[:g] - centre
        near = np.minimum(left, right)
        # the midpoint rule aliases at the rates half/radius (poles inside)
        # and radius/near (poles outside); both are <= 0.3 for a tight group
        radius = np.minimum(0.25, np.maximum(0.3 * near, np.sqrt(half * near)))
        rate = np.maximum(half / radius, radius / near)
        nodes = np.maximum(_CIRCLE_NODES, np.ceil(math.log(1e-17) / np.log(rate))).astype(int)
        # the leading groups whose circles fit the budget
        used = np.cumsum(nodes)
        k = int(np.searchsorted(used, budget, side="right"))
        coeffs, scale = self._circle_moments(members[:k], size[:k], centre[:k], radius[:k],
                                             nodes[:k])
        return centre[:k], coeffs, scale, int(used[k - 1]) if k else 0, exhausted or k < g

    def _circle_moments(self, members: np.ndarray, size: np.ndarray, centre: np.ndarray,
                        radius: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residue power series of the planned groups, one row each, and the
        scale of their Newton moments.  Group g has the poles
        ``members[g, :size[g]]`` and a circle of ``nodes[g]`` nodes with
        ``centre[g]`` and ``radius[g]``.  Groups with the same size and node
        count are done together, from one log-gamma evaluation."""
        coeffs = np.zeros((centre.size, 0))
        scale = np.empty(centre.size)
        # largest |ln t| any caller of the table can ask for
        log_span = -math.log(_DE_FLOOR) + abs(math.log(self.rho))
        for m, n in sorted(set(zip(size.tolist(), nodes.tolist()))):
            idx = np.flatnonzero((size == m) & (nodes == n))
            c, r = centre[idx], radius[idx]
            offsets = c[:, None] - members[idx, :m]  # s_j - s_c
            # node n-1-j (theta = 2 pi - theta_j) contributes the conjugate
            # of node j, so only theta in (0, pi] is evaluated and each node
            # there counts twice in the real part of a sum, but for odd n
            # the node at theta = pi, its own mirror image, counts once
            half = (n + 1) // 2
            theta = 2.0 * math.pi * (np.arange(half) + 0.5) / n
            fold = np.full(half, 2.0)
            fold[n // 2 :] = 1.0
            d = r[:, None] * np.exp(1j * theta)
            log_ratio = self._log_ratio(d - c[:, None])
            # c_k = (1/2 pi i) oint ratio(s) prod_(j<k) (s - s_j) ds by the
            # midpoint rule on |s - s_c| = radius, s_c = -centre
            w = np.exp(log_ratio + np.log(r / n)[:, None] + 1j * theta)
            moments = np.empty((idx.size, m))
            basis = np.ones_like(d)
            for k in range(m):
                moments[:, k] = (w * basis).real @ fold
                basis = basis * (d - offsets[:, k : k + 1])
            peak = np.exp(np.max(log_ratio.real, axis=1)) * r
            scale[idx] = np.max(np.abs(moments), axis=1) / peak
            # Taylor terms of exp(-(s - s_c) ln t) past the group size, until
            # (max |s_j - s_c| |ln t|)^j / j! < 1e-17
            reach = float(np.max(np.abs(offsets))) * log_span
            extra, term = 0, reach
            while term > 1e-17:
                extra += 1
                term *= reach / (extra + 1)
            rows = _newton_to_power(moments, offsets, extra)
            if rows.shape[1] > coeffs.shape[1]:
                coeffs = np.pad(coeffs, ((0, 0), (0, rows.shape[1] - coeffs.shape[1])))
            coeffs[idx, : rows.shape[1]] = rows
        return coeffs, scale

    def _residues(
        self, log_t: np.ndarray, centres: np.ndarray, coeffs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(H, |last two group terms|, sum |group terms|) from the residue
        table rows ``centres`` and ``coeffs``."""
        value = np.zeros_like(log_t)
        tail = np.zeros_like(log_t)
        mass = np.zeros_like(log_t)
        powers = np.arange(coeffs.shape[1])
        for i in range(0, log_t.size, _RESIDUE_CHUNK):
            lt = log_t[i : i + _RESIDUE_CHUNK]
            terms = np.exp(np.outer(lt, centres)) * (np.power.outer(-lt, powers) @ coeffs.T)
            value[i : i + _RESIDUE_CHUNK] = terms.sum(axis=1)
            tail[i : i + _RESIDUE_CHUNK] = np.abs(terms[:, -2:]).sum(axis=1)
            mass[i : i + _RESIDUE_CHUNK] = np.abs(terms).sum(axis=1)
        return value, tail, mass

    def _residue_density(self, t: np.ndarray) -> np.ndarray:
        """H(t) from the residues alone: the evaluator's table where its
        tail at max t is below 1e-3 tol, else a table built for max t and
        dropped after the call.

        Raises NonConvergentError when the node budget ends the table
        before the last groups' terms are negligible.
        """
        if t.size == 0:
            return np.zeros_like(t)
        sigma = self._table_sigma(float(np.max(t)), 1e-3 * _TOL)
        if sigma <= self._res_sigma:
            centres, coeffs = self._res_centres, self._res_coeffs
            exhausted = self._res_sigma == math.inf
        else:
            centres, coeffs, _, _, exhausted = self._build_table(sigma)
        value, tail, _ = self._residues(np.log(t), centres, coeffs)
        if exhausted and np.max(tail) > _TOL * np.max(np.abs(value)):
            raise NonConvergentError(
                "residue groups failed to decay within the node budget; "
                "use the endpoint series this close to the support endpoint"
            )
        return value

    def _split_density(self, t: np.ndarray, log_t: np.ndarray, u: np.ndarray) -> np.ndarray:
        """H from whichever route has the smaller error estimate at each t.

        The residues of the evaluator's table are consulted out to its
        reach, and wherever the endpoint series misses 1e-3 tol of H; the
        endpoint series serves the rest.  NonConvergentError where
        neither estimate is within max(tol, _ENDPOINT_ULPS eps) of its sum
        of |terms|: the node budget ended the residues short of the endpoint
        series' reach.
        """
        value, tail, mass = self._endpoint(u)
        est = tail + _EPS * mass
        miss = est > 1e-3 * _TOL * np.abs(value)
        idx = np.flatnonzero((t <= self._reach) | miss)
        res, res_tail, res_mass = self._residues(log_t[idx], self._res_centres, self._res_coeffs)
        res_est = res_tail + _EPS * res_mass
        better = res_est < est[idx]
        tol = max(_TOL, _ENDPOINT_ULPS * _EPS)
        if np.any(np.minimum(res_est, est[idx]) > tol * np.where(better, res_mass, mass[idx])):
            raise NonConvergentError(
                "neither series converges at some t: the node budget ended the "
                "residues short of the endpoint series' reach"
            )
        value[idx[better]] = res[better]
        return value

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------

    def density(self, t: np.ndarray, method: HfunMethod = HfunMethod.AUTO) -> np.ndarray:
        """Regular part H(t) on the open support interval, vectorised.

        AUTO takes each t from the series with the smaller error estimate.
        RESIDUE_SERIES and ENDPOINT_SERIES use one series throughout and
        raise NonConvergentError where it has not converged to ``_TOL``.
        OutsideDomainError unless every t satisfies 0 < t < rho, NaN included.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.all((t > 0.0) & (t < self.rho)):
            raise OutsideDomainError(
                f"density is defined on the open interval (0, {self.rho:.6g})"
            )
        if self.degenerate:
            return np.zeros_like(t)
        if method is HfunMethod.RESIDUE_SERIES:
            return self._residue_density(t)
        u = np.log1p((self.rho - t) / t)
        if method is HfunMethod.ENDPOINT_SERIES:
            value, tail, mass = self._endpoint(u)
            if np.any(tail > _TOL * mass):
                raise NonConvergentError(
                    "endpoint series has not converged this far from the support "
                    "endpoint; use the residue series"
                )
            return value
        return self._split_density(t, np.log(t), u)

    def atom_mellin(self, s: float) -> float:
        """Mellin transform of the endpoint atoms: eta rho^s sum_r l_r s^(m-r),
        their functional ``series._atoms`` on t^s, whose scaled derivatives
        at rho are the falling factorials (s)_i rho^s.

        Identically zero when mu > 0 (pure-density regime, no atoms).
        """
        try:
            value = _atoms(self.params, lambda i: math.prod(s - r for r in range(i)) * self.rho**s)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise DomainError(f"the atom transform at s={s:g} overflows a double")
        return value

    def _rule_level(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights w_i H(t_i) of one tanh-sinh level, built on first use.

        H takes u = ln(rho/t) from the rule's complement, so the nodes where
        t rounds onto rho stay in the rule.
        """
        while len(self._rule) <= level:
            t, u, w = tanh_sinh(len(self._rule), self.rho, *self._rule_span())
            self._rule.append((t, w * self._split_density(t, math.log(self.rho) - u, u)))
        return self._rule[level]

    def _rule_span(self) -> tuple[float, float]:
        """(X_lo, X_hi): the rule's nodes run from t = rho e^(pi sinh(-X_lo))
        up to rho - t = rho e^(-pi sinh X_hi)."""

        def span(a: float) -> float:
            # for H ~ t^a near 0, or H ~ (rho - t)^(a - 1) near rho
            tiny = _DE_TINY
            if a > 0.0:
                tiny = max(min(tiny, (1e-3 * _TOL) ** (1.0 / a)), _DE_FLOOR)
            return tanh_sinh_reach(tiny)

        return span(self._first), span(self.mu)

    def measure_integral(self, fn: Callable[[np.ndarray], np.ndarray]) -> tuple:
        """(integral_0^rho fn(t) H(t) dt, error estimate) on the cached rule.

        ``fn`` is evaluated on the rule's nodes, level by level, and dotted
        with the stored weights w_i H(t_i); ``integrate_levels`` refines until
        two successive sums agree to ``_TOL``, else QuadratureFailure, as where
        an overflow (numpy warns of none) leaves a sum that is not finite.  A
        (k, n) array from ``fn`` for n nodes gives length-k totals and
        estimates, row i equal bit for bit to the integral of row i alone.
        """
        if self.degenerate:
            zero = np.zeros(np.shape(fn(np.empty(0)))[:-1])
            return (0.0, 0.0) if zero.ndim == 0 else (zero, np.zeros_like(zero))

        def terms(level: int) -> tuple[np.ndarray, np.ndarray]:
            t, wh = self._rule_level(level)
            return fn(t), wh

        with np.errstate(over="ignore"):
            return integrate_levels(terms, _TOL, (0.0, self.rho))

    def moment(self, s: float) -> float:
        """integral_0^rho H(t) t^(s-1) dt; QuadratureFailure where t^(s-1)
        overflows a double on the rule's nodes."""
        return self.measure_integral(lambda t: t ** (s - 1.0))[0]


# Evaluators by parameter set, least recently used first; at most
# _EVALUATOR_CAP are kept, so a stream of new sets holds bounded memory.
_EVALUATORS: dict[ParameterSet, MeasureEvaluator] = {}
_EVALUATOR_CAP = 32


def get_evaluator(params: ParameterSet) -> MeasureEvaluator:
    ev = _EVALUATORS.pop(params, None)
    if ev is None:
        ev = MeasureEvaluator(params)
        if len(_EVALUATORS) >= _EVALUATOR_CAP:
            del _EVALUATORS[next(iter(_EVALUATORS))]
    _EVALUATORS[params] = ev
    return ev


def _newton_to_power(moments: np.ndarray, nodes: np.ndarray, extra: int) -> np.ndarray:
    """b_n with sum_k c_k f[s_0..s_k] = t^centre sum_n b_n (-ln t)^n, f = t^-s,
    one row per group of ``moments`` c_k and node offsets e_k = s_k - s_c.

    About the centre, f = t^centre sum_n (-ln t)^n (s - s_c)^n / n!, and the
    divided difference of (s - s_c)^n over s_0..s_k is the complete
    homogeneous polynomial h_(n-k) of e_0..e_k.  So
    b_n = sum_(k<=n) c_k h_(n-k)(e_0..e_k) / n!, for n < size + extra.
    """
    groups, size = moments.shape
    width = size + extra
    out = np.zeros((groups, width))
    h = np.zeros((groups, width))
    h[:, 0] = 1.0
    for k in range(size):
        # h_j(e_0..e_k) = h_j(e_0..e_(k-1)) + e_k h_(j-1)(e_0..e_k)
        for j in range(1, width):
            h[:, j] += nodes[:, k] * h[:, j - 1]
        out[:, k:] += moments[:, k : k + 1] * h[:, : width - k]
    return out / np.array([math.factorial(n) for n in range(width)], dtype=float)


# ---------------------------------------------------------------------------
# nonnegativity scan
# ---------------------------------------------------------------------------


def hfun_nonneg_scan(params: ParameterSet) -> IdentityRecord:
    """Scan the density over 50 points of [1e-3 rho, (1 - 1e-3) rho]: a
    ``>=`` record at its minimum, built once per evaluator.

    lhs is the smallest H on the grid, z the t where it sits, and rhs is
    -1e-9 max |H|, a floor that scales with the largest magnitude seen, so
    an all-zero degenerate density passes without special-casing.
    """
    ev = get_evaluator(params)
    if ev._scan is None:
        grid = np.linspace(ev.rho * 1e-3, ev.rho * (1 - 1e-3), 50)
        vals = ev.density(grid)
        idx = int(np.argmin(vals))
        floor = -1e-9 * float(np.max(np.abs(vals)))
        ev._scan = _record("density-nonneg", params.hash_key(), grid[idx], float(vals[idx]),
                           floor, 0.0, ">=")
    return ev._scan
