"""Evaluation of the representing density on (0, rho).

For a balanced parameter set (sum of upper scales == sum of lower scales)
with mu equal to a non-positive integer -m, the gamma ratio splits into

    gamma_ratio(s) = integral_0^rho H(t) t^(s-1) dt
                     + eta * rho^s * (l_0 s^m + l_1 s^(m-1) + ... + l_m)

where H is the regular density this module computes and the polynomial part
is the Mellin transform of an atom (plus derivative atoms) sitting at
t = rho.  The atoms are always handled in closed form elsewhere
(``atom_mellin`` here, ``correction_series`` in the series module); nothing
in this file ever tries to integrate across them.

H has two series, one converging at each end of the support:

* Residue route, away from rho: H(t) is the sum of the residues of
  gamma_ratio(s) t^(-s) at the poles s = -(alpha_i + n)/A_i of the
  numerator gammas.  Poles closer than 1e-3 of the smallest ladder spacing
  form one group with nodes s_0..s_(m-1), coincident ones included.  A
  midpoint rule on a circle around the group (spectrally accurate) gives
  its Newton moments c_k = (1/2 pi i) oint ratio(s) prod_(j<k) (s - s_j) ds
  once per evaluator, and the group's residues sum to
  sum_k c_k f[s_0..s_k] for f(s) = t^(-s) (McCurdy, Ng & Parlett, Math.
  Comp. 43, 1984).  The divided differences come from the Taylor series of
  exp about the group's centre, so they do not cancel however close the
  nodes are, and reduce to c_k (-ln t)^k / k! when the nodes coincide.  Per
  group that is t^centre times a fixed power series in ln t: no circle sum
  of t^(-s) is taken, so nothing aliases at small t.  The terms decay like
  (t/rho)^sigma.

* Endpoint route, away from 0: H(t) = eta sum_r l_r u^(mu+r-1) / gamma(mu+r)
  with u = ln(rho/t) and the l_r of ``correction_coeffs`` through r = 40
  (Buhring, SIAM J. Math. Anal. 23, 1992).  Terms with mu + r a
  non-positive integer are the endpoint atoms and are left out.  It
  converges in u with a radius that depends on the set.

Each route reports an error estimate: its last two terms (so that a
vanishing coefficient does not hide the tail) plus its rounding floor
eps * sum |terms|.  The endpoint estimate falls as t grows, so one cut
per evaluator follows from it: the residue table is built so that its
tail is at the rounding level just above the last t (on a rho/32 grid)
where the endpoint estimate exceeds 16 eps |H|, or as far as the node
budget allows.  Out to the table's reach AUTO and the integration rule
take, per t, the route with the smaller estimate; above it the endpoint
series serves.  No switch point is measured or configured.

A parameter set whose ratio IS its polynomial part (upper == lower rows,
duplication- or multiplication-formula collapses) has H identically zero.
That degeneracy is read off the residue table: every Newton moment of the
groups within _TABLE_STEP of the first pole sits at rounding level against
its circle's largest |ratio(s)| * radius.  Both routes then return exact zeros.

Every integral against the measure, integral_0^rho fn(t) H(t) dt, runs on
one nested tanh-sinh rule (Takahasi & Mori, 1974) cached on the evaluator.
The substitution t = rho/2 (1 + tanh(pi/2 sinh x)) makes the integrand
decay double-exponentially in x at both ends, which absorbs the algebraic
behaviour of H at 0 and at rho alike.  Each level of the rule halves the
step and stores only its new nodes t_i with their weights w_i H(t_i), so
the density is evaluated once per node for the life of the evaluator and
an integral is a dot product fn(t) @ (w H) per level.  The rule is built
lazily, level by level, the first time an integral needs it; evaluators
that only serve density calls never build it.  Its H values come from the
same per-t route choice as AUTO, with u = ln(rho/t) taken from the
complement of the substitution, so nodes where t rounds onto rho keep an
exact u.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConstraintError,
    NonConvergentError,
    OutsideDomainError,
    ParameterError,
    QuadratureFailure,
)
from .params import ParameterSet, correction_coeffs, derive_constants
from .special import log_gamma_complex_vec

__all__ = [
    "HfunMethod",
    "HfunEvalConfig",
    "MeasureEvaluator",
    "get_evaluator",
    "atom_mellin",
    "moment_identity_check",
    "MomentIdentityReport",
    "hfun_nonneg_scan",
    "NonnegReport",
]

_EPS = float(np.finfo(float).eps)
_CIRCLE_NODES = 32
_GROUP_GAP = 1e-3  # of the smallest ladder spacing: closer poles share a circle
_TABLE_STEP = 10.0  # sigma step of the residue table's growth and degeneracy check
_DEGENERATE_RATIO = 1e-12
_ENDPOINT_ORDER = 40
# the endpoint series alone serves where its estimate is below this many eps |H|
_ENDPOINT_ULPS = 16.0
_RESIDUE_CHUNK = 128  # points per (points x groups) block of the residue sum
# tanh-sinh rule on (0, rho): x runs over [-X_lo, X_hi] with step _DE_STEP / 2^level.
# The smallest node sits at t = rho * _DE_TINY, or lower when H ~ t^a decays
# slowly near 0 (a = min shift/scale), so that the tail t^a / a left out stays
# below 1e-3 tol; never below rho * _DE_FLOOR, where 1/t and t H still fit
# in a double.  The same holds for rho - t when H ~ (rho - t)^(mu - 1) with
# 0 < mu < 1.
_DE_STEP = 0.5
_DE_TINY = 1e-29
_DE_FLOOR = 1e-300
_DE_MAX_LEVEL = 7


class HfunMethod(enum.Enum):
    RESIDUE_SERIES = "residue-series"
    ENDPOINT_SERIES = "endpoint-series"
    AUTO = "auto"


@dataclass(frozen=True)
class HfunEvalConfig:
    """Knobs for the density evaluator.

    method: the route ``density`` takes when the call names none.
    max_residue_terms: budget of circle nodes across all pole groups.
    tol: accuracy the residue table and the integration rule aim at.
    """

    method: HfunMethod = HfunMethod.AUTO
    max_residue_terms: int = 8000
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ParameterError("tol must be positive")
        if self.max_residue_terms < _CIRCLE_NODES:
            raise ParameterError("max_residue_terms below a single circle's node count")


class MeasureEvaluator:
    """Cached per-parameter-set machinery for H(t) and its integrals."""

    def __init__(self, params: ParameterSet, config: HfunEvalConfig | None = None):
        self.params = params
        self.config = config or HfunEvalConfig()
        self.constants = derive_constants(params)
        if abs(self.constants.delta) > 1e-9:
            raise ConstraintError(
                "density machinery requires balanced scale sums "
                f"(delta = {self.constants.delta:.3g})"
            )
        # mu > 0 has a pure density (no endpoint atoms); mu = -m adds the
        # polynomial atom part.  Negative non-integer mu would need
        # fractional-derivative atoms, which nothing downstream wants.
        if self.constants.m_order is None and self.constants.mu <= 1e-9:
            raise ConstraintError(
                "density machinery requires mu > 0 or mu equal to a non-positive "
                f"integer (mu = {self.constants.mu:.6g})"
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
        self._ell = correction_coeffs(params, order)
        lead = 0 if self.m is None else self.m + 1
        self._end_power = self.mu + lead - 1.0
        self._end_coef = np.array(
            [self.eta * self._ell[r] / math.gamma(self.mu + r) for r in range(lead, order + 1)]
        )

        # residue table, grown by _extend_table: group g's residues at t sum
        # to t^centres[g] sum_n coeffs[g, n] (-ln t)^n, and scale[g] is
        # max |c_k| / (max |ratio| * radius) on its circle
        self._res_centres = np.empty(0)
        self._res_coeffs = np.empty((0, 0))
        self._res_scale = np.empty(0)
        self._res_sigma_built = 0.0
        self._res_nodes_used = 0
        self._pole_gen_exhausted = False
        # the part of the table AUTO reads, fixed by _place_cut
        self._auto_groups = 0
        self._auto_reach = 0.0
        # the benchmark counts work as _res_nodes_used + _tau.size; every node
        # is spent on the residue table, so _tau stays empty
        self._tau = np.empty(0)

        # integration state, filled lazily: tanh-sinh levels of (t_i, w_i H(t_i))
        # and the default nonnegativity scan
        self._rule: list[tuple[np.ndarray, np.ndarray]] = []
        self._default_scan: NonnegReport | None = None

        self._place_cut()
        if self._res_centres.size == 0:
            raise NonConvergentError("the first pole group needs more than max_residue_terms")
        leading = self._res_centres <= self._first + _TABLE_STEP
        self.degenerate = bool(np.all(self._res_scale[leading] <= _DEGENERATE_RATIO))

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

    def _generate_poles(self, sigma_max: float) -> list[float]:
        out: list[float] = []
        for a, sc in self.params.upper:
            n = 0
            while True:
                sigma = (a + n) / sc
                if sigma > sigma_max:
                    break
                out.append(sigma)
                n += 1
        out.sort()
        return out

    def _ensure_residue_table(self, t_max: float, target: float | None = None) -> None:
        """The residue table that H(t <= t_max) needs: out to the pole
        abscissa where (t_max/rho)^(sigma - first) falls below target,
        1e-3 tol unless given."""
        target = 1e-3 * self.config.tol if target is None else target
        self._extend_table(self._first + math.log(target) / math.log(t_max / self.rho))

    def _extend_table(self, sigma_target: float) -> None:
        """Newton moments of every pole group with centre up to sigma_target.

        The target is rounded up to a multiple of _TABLE_STEP so creeping
        t_max values don't trigger a rebuild per call.  The table stops
        early (``_pole_gen_exhausted``) when the groups' circle nodes would
        overrun ``max_residue_terms``, and at the sigma where one upper row
        alone has more poles than the budget has circles.  Each extension
        rebuilds the whole table.
        """
        if self._pole_gen_exhausted:
            return
        budget = self.config.max_residue_terms
        sigma_target = _TABLE_STEP * math.ceil(sigma_target / _TABLE_STEP)
        cap = min((a + budget // _CIRCLE_NODES) / sc for a, sc in self.params.upper)
        if sigma_target <= self._res_sigma_built:
            return
        if sigma_target > cap:
            sigma_target = cap
            self._pole_gen_exhausted = True
        # one ladder spacing past the target, so the last group's neighbour is known
        spacing = min(1.0 / sc for _, sc in self.params.upper)
        limit = sigma_target + spacing
        members: list[list[float]] = []
        for sg in self._generate_poles(limit):
            if members and sg - members[-1][-1] <= _GROUP_GAP * spacing:
                members[-1].append(sg)
            else:
                members.append([sg])
        plan = []
        used = 0
        for i, group in enumerate(members):
            centre = sum(group) / len(group)
            if centre > sigma_target:
                break
            half = max(abs(sg - centre) for sg in group)
            left = centre - members[i - 1][-1] if i else math.inf
            right = members[i + 1][0] - centre if i + 1 < len(members) else limit - centre
            near = min(left, right)
            # the midpoint rule aliases at the rates half/radius (poles inside)
            # and radius/near (poles outside); both are <= 0.3 for a tight group
            radius = min(0.25, max(0.3 * near, math.sqrt(half * near)))
            rate = max(half / radius, radius / near)
            nodes = max(_CIRCLE_NODES, math.ceil(math.log(1e-17) / math.log(rate)))
            if used + nodes > budget:
                self._pole_gen_exhausted = True
                break
            used += nodes
            plan.append((group, centre, radius, nodes))
        self._res_centres = np.array([p[1] for p in plan])
        self._res_coeffs, self._res_scale = self._circle_moments(plan)
        self._res_nodes_used = used
        # an exhausted table reaches only as far as its last group
        self._res_sigma_built = plan[-1][1] if self._pole_gen_exhausted and plan else sigma_target

    def _circle_moments(self, plan: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
        """Residue power series of the planned groups, one row each, and the
        scale of their Newton moments.  Groups with the same size and node
        count are done together, from one log-gamma evaluation."""
        coeffs = np.zeros((len(plan), 0))
        scale = np.empty(len(plan))
        # largest |ln t| any caller of the table can ask for
        log_span = -math.log(_DE_FLOOR) + abs(math.log(self.rho))
        for m, n in sorted({(len(p[0]), p[3]) for p in plan}):
            idx = [i for i, p in enumerate(plan) if (len(p[0]), p[3]) == (m, n)]
            centre = np.array([plan[i][1] for i in idx])
            radius = np.array([plan[i][2] for i in idx])
            nodes = centre[:, None] - np.array([plan[i][0] for i in idx])  # s_j - s_c
            theta = 2.0 * math.pi * (np.arange(n) + 0.5) / n
            d = radius[:, None] * np.exp(1j * theta)
            log_ratio = self._log_ratio(d - centre[:, None])
            # c_k = (1/2 pi i) oint ratio(s) prod_(j<k) (s - s_j) ds by the
            # midpoint rule on |s - s_c| = radius, s_c = -centre
            w = np.exp(log_ratio + np.log(radius / n)[:, None] + 1j * theta)
            moments = np.empty((len(idx), m))
            basis = np.ones_like(d)
            for k in range(m):
                moments[:, k] = np.sum(w * basis, axis=1).real
                basis = basis * (d - nodes[:, k : k + 1])
            peak = np.exp(np.max(log_ratio.real, axis=1)) * radius
            scale[idx] = np.max(np.abs(moments), axis=1) / peak
            # Taylor terms of exp(-(s - s_c) ln t) past the group size, until
            # (max |s_j - s_c| |ln t|)^j / j! < 1e-17
            reach = float(np.max(np.abs(nodes))) * log_span
            extra, term = 0, reach
            while term > 1e-17:
                extra += 1
                term *= reach / (extra + 1)
            rows = _newton_to_power(moments, nodes, extra)
            if rows.shape[1] > coeffs.shape[1]:
                coeffs = np.pad(coeffs, ((0, 0), (0, rows.shape[1] - coeffs.shape[1])))
            coeffs[idx, : rows.shape[1]] = rows
        return coeffs, scale

    def _residues(
        self, log_t: np.ndarray, count: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(H, |last two group terms|, sum |group terms|) from the first
        ``count`` groups of the residue table (all by default)."""
        value = np.zeros_like(log_t)
        tail = np.zeros_like(log_t)
        mass = np.zeros_like(log_t)
        centres = self._res_centres[:count]
        coeffs = self._res_coeffs[:count]
        powers = np.arange(coeffs.shape[1])
        for i in range(0, log_t.size, _RESIDUE_CHUNK):
            lt = log_t[i : i + _RESIDUE_CHUNK]
            terms = np.exp(np.outer(lt, centres)) * (np.power.outer(-lt, powers) @ coeffs.T)
            value[i : i + _RESIDUE_CHUNK] = terms.sum(axis=1)
            tail[i : i + _RESIDUE_CHUNK] = np.abs(terms[:, -2:]).sum(axis=1)
            mass[i : i + _RESIDUE_CHUNK] = np.abs(terms).sum(axis=1)
        return value, tail, mass

    def _principal_density(self, t: np.ndarray) -> np.ndarray:
        """H(t) from the residue table alone.

        Raises NonConvergentError when the node budget ends the table
        before the last groups' terms are negligible.
        """
        if t.size == 0:
            return np.zeros_like(t)
        self._ensure_residue_table(float(np.max(t)))
        value, tail, _ = self._residues(np.log(t))
        if self._pole_gen_exhausted and np.max(tail) > self.config.tol * np.max(np.abs(value)):
            raise NonConvergentError(
                "residue groups failed to decay within the node budget; "
                "use the endpoint series this close to the support endpoint"
            )
        return value

    def _place_cut(self) -> None:
        """Build the residue table that AUTO and the rule use, once.

        The endpoint series' estimate falls as t grows.  On the probes
        t = k rho / 32 find the first one above the last where it exceeds
        _ENDPOINT_ULPS eps |H|, and build the table so that its tail there
        is at the rounding level, or as far as the node budget allows.  The
        residues then serve out to the table's reach, the t where its tail
        meets 1e-3 tol, wherever their estimate is the smaller.  Later
        growth of the table for RESIDUE_SERIES calls does not change what
        AUTO returns.
        """
        probe = self.rho * np.arange(1, 32) / 32.0
        value, tail, mass = self._endpoint(np.log1p((self.rho - probe) / probe))
        miss = np.flatnonzero(tail + _EPS * mass > _ENDPOINT_ULPS * _EPS * np.abs(value))
        cut = probe[min(miss[-1] + 1, probe.size - 1)] if miss.size else probe[0]
        self._ensure_residue_table(float(cut), _EPS)
        span = self._res_sigma_built - self._first
        self._auto_groups = self._res_centres.size
        self._auto_reach = self.rho * (1e-3 * self.config.tol) ** (1.0 / span) if span > 0 else 0.0

    def _split_density(self, t: np.ndarray, log_t: np.ndarray, u: np.ndarray) -> np.ndarray:
        """H from whichever route has the smaller error estimate at each t.

        The residues of the table ``_place_cut`` built are consulted out to
        its reach, and wherever the endpoint series misses 1e-3 tol of H;
        the endpoint series serves the rest.  NonConvergentError where
        neither estimate is within max(tol, _ENDPOINT_ULPS eps) of its sum
        of |terms|: the node budget ended the residues short of the endpoint
        series' reach.
        """
        value, tail, mass = self._endpoint(u)
        est = tail + _EPS * mass
        miss = est > 1e-3 * self.config.tol * np.abs(value)
        idx = np.flatnonzero((t <= self._auto_reach) | miss)
        res, res_tail, res_mass = self._residues(log_t[idx], self._auto_groups)
        res_est = res_tail + _EPS * res_mass
        better = res_est < est[idx]
        tol = max(self.config.tol, _ENDPOINT_ULPS * _EPS)
        if np.any(np.minimum(res_est, est[idx]) > tol * np.where(better, res_mass, mass[idx])):
            raise NonConvergentError("neither series converges at some t; raise max_residue_terms")
        value[idx[better]] = res[better]
        return value

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------

    def density(self, t: np.ndarray, method: HfunMethod | None = None) -> np.ndarray:
        """Regular part H(t) on the open support interval, vectorised.

        AUTO takes each t from the series with the smaller error estimate.
        RESIDUE_SERIES and ENDPOINT_SERIES use one series throughout and
        raise NonConvergentError where it has not converged to
        ``config.tol``.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t <= 0.0) or np.any(t >= self.rho):
            raise OutsideDomainError(
                f"density is defined on the open interval (0, {self.rho:.6g})"
            )
        method = method or self.config.method
        if self.degenerate:
            return np.zeros_like(t)
        if method is HfunMethod.RESIDUE_SERIES:
            return self._principal_density(t)
        u = np.log1p((self.rho - t) / t)
        if method is HfunMethod.ENDPOINT_SERIES:
            value, tail, mass = self._endpoint(u)
            if np.any(tail > self.config.tol * mass):
                raise NonConvergentError(
                    "endpoint series has not converged this far from the support "
                    "endpoint; use the residue series"
                )
            return value
        return self._split_density(t, np.log(t), u)

    def atom_mellin(self, s: float) -> float:
        """Mellin transform of the endpoint atoms: eta rho^s sum_r l_r s^(m-r).

        Identically zero when mu > 0 (pure-density regime, no atoms).
        """
        if self.m is None:
            return 0.0
        poly = 0.0
        for r in range(self.m + 1):
            poly += self._ell[r] * s ** (self.m - r)
        return self.eta * self.rho**s * poly

    def _rule_level(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights w_i H(t_i) of one tanh-sinh level, built on first use.

        Level 0 holds x = j h with h = _DE_STEP; level l > 0 holds only the
        odd multiples of h / 2^l, so the levels nest and each node's density
        value is computed once.  u = ln(rho/t) = log1p(e^(-2v)) comes from
        the complement, so the nodes where t rounds onto rho keep their
        exact u and stay in the rule.
        """
        while len(self._rule) <= level:
            lev = len(self._rule)
            h = _DE_STEP / 2**lev
            lo, hi = self._rule_span()
            j = np.arange(-int(lo / h), int(hi / h) + 1)
            x = h * (j if lev == 0 else j[j % 2 == 1])
            v = 0.5 * math.pi * np.sinh(x)
            t = self.rho / (1.0 + np.exp(-2.0 * v))
            u = np.where(v < 0.0, np.log1p(np.exp(2.0 * v)) - 2.0 * v, np.log1p(np.exp(-2.0 * v)))
            w = h * 0.25 * math.pi * self.rho * np.cosh(x) / np.cosh(v) ** 2
            self._rule.append((t, w * self._split_density(t, math.log(self.rho) - u, u)))
        return self._rule[level]

    def _rule_span(self) -> tuple[float, float]:
        """(X_lo, X_hi): the rule's nodes run from t = rho e^(pi sinh(-X_lo))
        up to rho - t = rho e^(-pi sinh X_hi)."""

        def span(a: float) -> float:
            # for H ~ t^a near 0, or H ~ (rho - t)^(a - 1) near rho
            tiny = _DE_TINY
            if a > 0.0:
                tiny = max(min(tiny, (1e-3 * self.config.tol) ** (1.0 / a)), _DE_FLOOR)
            return math.asinh(-math.log(tiny) / math.pi)

        return span(self._first), span(self.mu)

    def _integral(self, fn: Callable[[np.ndarray], np.ndarray]) -> tuple[float, float]:
        """(integral_0^rho fn(t) H(t) dt, error estimate).

        The estimate is the difference of the last two tanh-sinh levels, but
        never below the rounding floor eps * integral of |fn H|: two levels
        that agree to the last bit have not shown an error of 0.  Halves the
        step until the estimate is within ``config.tol`` of the integral of
        |fn H|; raises QuadratureFailure when the finest level still misses
        it or the sum is not finite.
        """
        if self.degenerate:
            return 0.0, 0.0
        tol = self.config.tol
        total = mass = 0.0
        diff = math.inf
        for level in range(_DE_MAX_LEVEL + 1):
            # the level-l sum is half the previous one plus the new nodes
            t, wh = self._rule_level(level)
            f = np.asarray(fn(t))
            prev = total
            total = 0.5 * total + float(f @ wh)
            mass = 0.5 * mass + float(np.abs(f) @ np.abs(wh))
            if not math.isfinite(total):
                break
            if level:
                diff = max(abs(total - prev), _EPS * mass)
                if diff <= tol * mass:
                    return total, diff
        raise QuadratureFailure(
            f"tanh-sinh levels disagree by {diff:.2e} (tol {tol:g} of {mass:.3e})",
            interval=(0.0, self.rho),
            estimate=total,
            err_estimate=diff,
        )

    def measure_integral(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        """integral_0^rho fn(t) H(t) dt on the evaluator's cached tanh-sinh rule.

        ``fn`` is evaluated on the rule's nodes, level by level, and dotted
        with the stored weights w_i H(t_i); no density is evaluated once the
        levels it needs exist.  Levels are refined until two successive sums
        agree to ``config.tol``; QuadratureFailure when the finest level
        (step _DE_STEP / 2^_DE_MAX_LEVEL) still does not.
        """
        return self._integral(fn)[0]

    def moment(self, s: float) -> float:
        """integral_0^rho H(t) t^(s-1) dt."""
        return self.measure_integral(lambda t: t ** (s - 1.0))


# Evaluators by (params, config), least recently used first; at most
# _EVALUATOR_CAP are kept, so a stream of new sets holds bounded memory.
_EVALUATORS: dict[tuple[ParameterSet, HfunEvalConfig], MeasureEvaluator] = {}
_EVALUATOR_CAP = 32


def get_evaluator(params: ParameterSet, config: HfunEvalConfig | None = None) -> MeasureEvaluator:
    key = (params, config or HfunEvalConfig())
    ev = _EVALUATORS.pop(key, None)
    if ev is None:
        ev = MeasureEvaluator(key[0], key[1])
        if len(_EVALUATORS) >= _EVALUATOR_CAP:
            del _EVALUATORS[next(iter(_EVALUATORS))]
    _EVALUATORS[key] = ev
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
# functional wrappers
# ---------------------------------------------------------------------------


def atom_mellin(params: ParameterSet, s: float, config: HfunEvalConfig | None = None) -> float:
    return get_evaluator(params, config).atom_mellin(s)


@dataclass(frozen=True)
class MomentIdentityReport:
    rows: tuple[dict, ...]
    max_rel_err: float

    def ok(self, threshold: float = 1e-6) -> bool:
        return self.max_rel_err <= threshold


def moment_identity_check(
    params: ParameterSet,
    k_list: list[float],
    config: HfunEvalConfig | None = None,
) -> MomentIdentityReport:
    """Compare gamma_ratio(k) against moment(k) + atom part, per k.

    The relative error is normalised by 1 + |gamma_ratio| so tiny ratios
    don't blow up the report.
    """
    from .params import gamma_ratio

    ev = get_evaluator(params, config)
    rows = []
    worst = 0.0
    for k in k_list:
        lhs = gamma_ratio(params, k)
        integral = ev.moment(k)
        atoms = ev.atom_mellin(k)
        rhs = integral + atoms
        abs_err = abs(lhs - rhs)
        rel_err = abs_err / (1.0 + abs(lhs))
        worst = max(worst, rel_err)
        rows.append(
            {
                "k": k,
                "gamma_ratio": lhs,
                "moment": integral,
                "atom": atoms,
                "rhs": rhs,
                "abs_err": abs_err,
                "rel_err": rel_err,
            }
        )
    return MomentIdentityReport(tuple(rows), worst)


@dataclass(frozen=True)
class NonnegReport:
    min_value: float
    min_location: float
    nonneg: bool
    tol_abs: float


def hfun_nonneg_scan(
    params: ParameterSet,
    grid: np.ndarray | list[float] | None = None,
    config: HfunEvalConfig | None = None,
) -> NonnegReport:
    """Scan the density over a grid and report whether it stays nonnegative.

    The tolerance scales with the largest magnitude seen so an all-zero
    degenerate density reports nonnegative without special-casing.  The
    default grid (50 points over [1e-3 rho, (1 - 1e-3) rho]) is scanned once
    per evaluator and its report reused; an explicit grid is always scanned.
    """
    ev = get_evaluator(params, config)
    if grid is not None:
        return _scan(ev, np.asarray(grid, dtype=float))
    if ev._default_scan is None:
        ev._default_scan = _scan(ev, np.linspace(ev.rho * 1e-3, ev.rho * (1 - 1e-3), 50))
    return ev._default_scan


def _scan(ev: MeasureEvaluator, grid: np.ndarray) -> NonnegReport:
    vals = ev.density(grid)
    idx = int(np.argmin(vals))
    tol_abs = 1e-9 * float(np.max(np.abs(vals)))
    return NonnegReport(
        min_value=float(vals[idx]),
        min_location=float(grid[idx]),
        nonneg=bool(vals[idx] >= -tol_abs),
        tol_abs=tol_abs,
    )
