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

Two evaluation routes are implemented and cross-checked:

* Residue route: H(t) is the sum of residues of gamma_ratio(s) * t^(-s)
  over the poles of the numerator gammas at s = -(alpha_i + n)/A_i.  Poles
  closer than 1e-8 are treated as one multiple pole.  A 32-node circle
  around each such cluster (midpoint rule, spectrally accurate, agnostic to
  multiplicity) gives the Laurent coefficients of its principal part once
  per evaluator; the residue at any t then follows in closed form as
  t^sigma times a polynomial in ln t.  No circle sum of t^(-s) is taken,
  so nothing aliases at small t.  Distinct poles separated by less than
  1e-6 are refused: the circle radius cannot be chosen safely.  Convergence
  is geometric in (t/rho)^sigma, so the route is used away from rho.

* Contour route: H(t) = (1/2 pi) Integral ratio(c+i tau) t^(-c-i tau) dtau
  along a vertical line right of every pole.  The integrand only decays
  algebraically, so the known asymptotic eta * rho^s * sum l_r s^(m-r) is
  subtracted through order m+6; the subtracted terms with non-negative
  powers of s transform to atoms at rho (zero on the open interval) while
  the 1/s^j terms transform back analytically as
  eta * l_(m+j) * ln(rho/t)^(j-1)/(j-1)!.  What remains decays like
  |tau|^(-7) and is integrated on cached unit panels of Gauss-Legendre
  nodes.  The cancellation ratio - subtraction is computed in log space
  with a complex expm1 so the accuracy survives where the two agree to
  ten digits.

AUTO takes residues up to 0.8 rho and the contour above.  When the residue
table's node budget runs out before its terms are negligible at the
switch, the switch drops to the table's reach, the t below which its last
term has decayed past 1e-3 tol.

A parameter set whose ratio IS its polynomial part (upper == lower rows,
or duplication-formula collapses) has H identically zero; that degeneracy
is detected from the contour integrand and both routes then return exact
zeros rather than integrating noise.

Every integral against the measure, integral_0^rho fn(t) H(t) dt, runs on
one nested tanh-sinh rule (Takahasi & Mori, 1974) cached on the evaluator.
The substitution t = rho/2 (1 + tanh(pi/2 sinh x)) makes the integrand
decay double-exponentially in x at both ends, which absorbs the algebraic
small-t behaviour of H and the log(rho/t) powers at rho alike.  Each level
of the rule halves the step and stores only its new nodes t_i with their
weights w_i H(t_i), so the density is evaluated once per node for the life
of the evaluator and an integral is a dot product fn(t) @ (w H) per level.
The rule is built lazily, level by level, the first time an integral needs
it; evaluators that only serve density calls never build it.  Its H values
come from the same residue/contour split as AUTO, switched at rho/2.
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
    PoleCollisionError,
    QuadratureFailure,
)
from .params import ParameterSet, correction_coeffs, derive_constants
from .quadrature import gauss_legendre
from .special import gamma_real, log_gamma_complex_vec

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

_MERGE_GAP = 1e-8
_COLLISION_GAP = 1e-6
_CIRCLE_NODES = 32
_EXTRA_ORDERS = 6  # extra subtracted 1/s^j terms on the contour
_DEGENERATE_RATIO = 1e-12
_PANEL_POINTS = 16
_MAX_PANELS = 400
# tanh-sinh rule on (0, rho): x runs over [-X, X] with step _DE_STEP / 2^level.
# The smallest node sits at t = rho * _DE_TINY, or lower when H ~ t^a decays
# slowly near 0 (a = min shift/scale), so that the tail t^a / a left out stays
# below 1e-3 tol; never below rho * _DE_FLOOR, where 1/t and t H still fit
# in a double.  Nodes near x = +X round onto rho and are dropped.
_DE_STEP = 0.5
_DE_TINY = 1e-29
_DE_FLOOR = 1e-300
_DE_MAX_LEVEL = 7
# Where H switches from principal-part residues to the contour.  AUTO stays
# on residues up to 0.8 rho: the contour is up to 1.4e-7 off at 0.5-0.7 rho
# on mu ~ 2.5 sets.  The rule switches at rho/2: at 0.8 rho the step between the
# routes, which tanh-sinh integrates only to first order in h, cost moment
# digits on double-pole and on a mu = -1 set.
_AUTO_SWITCH = 0.8
_RULE_SWITCH = 0.5
_CONTOUR_CHUNK = 64


class HfunMethod(enum.Enum):
    RESIDUE_SERIES = "residue-series"
    REGULARIZED_CONTOUR = "regularized-contour"
    AUTO = "auto"


@dataclass(frozen=True)
class HfunEvalConfig:
    """Knobs for the density evaluator.

    contour_abscissa: real part c of the vertical line (must exceed the
        rightmost pole abscissa); None picks max(gamma, 0) + 1 bumped so
        every gamma argument stays in the right half-plane.
    contour_cutoff: truncation T of the tau integral; None grows panels
        until the integrand has decayed below 1e-12 of its peak.
    max_residue_terms: budget of circle nodes across all pole clusters.
    """

    method: HfunMethod = HfunMethod.AUTO
    contour_abscissa: float | None = None
    contour_cutoff: float | None = None
    max_residue_terms: int = 8000
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ParameterError("tol must be positive")
        if self.contour_cutoff is not None and self.contour_cutoff <= 0:
            raise ParameterError("contour_cutoff must be positive")
        if self.max_residue_terms < _CIRCLE_NODES:
            raise ParameterError("max_residue_terms below a single cluster's node count")


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
        self._n_sub = (self.m or 0) + _EXTRA_ORDERS
        self._ell = correction_coeffs(params, self._n_sub)
        self._c = self._pick_abscissa()

        # contour state
        self._tau: np.ndarray = np.empty(0)
        self._gl_w: np.ndarray = np.empty(0)
        self._g: np.ndarray = np.empty(0, dtype=complex)
        self._sub_peak = 0.0
        self._g_peak = 0.0
        self.degenerate = False

        # residue state: (center, Laurent coefficients c_0..c_(m-1)) per pole
        # cluster of m merged poles
        self._clusters: list[tuple[float, np.ndarray]] = []
        self._res_sigma_built = 0.0
        self._res_nodes_used = 0
        self._pole_gen_exhausted = False

        # integration state, filled lazily: tanh-sinh levels of (t_i, w_i H(t_i))
        # and the default nonnegativity scan
        self._rule: list[tuple[np.ndarray, np.ndarray]] = []
        self._default_scan: NonnegReport | None = None

        self._build_contour()

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    def _pick_abscissa(self) -> float:
        g = self.constants.gamma_abscissa
        c = max(g, 0.0) + 1.0
        # keep every gamma argument's real part >= 0.6 along the line so the
        # vectorised log-gamma never reflects (reflection would meet
        # sin(pi z) overflow for large |Im z|)
        for shift, scale in self.params.upper + self.params.lower:
            c = max(c, (0.6 - shift) / scale)
        explicit = self.config.contour_abscissa
        if explicit is not None:
            if explicit <= g:
                raise ParameterError(
                    f"contour abscissa {explicit} does not clear the pole front {g}"
                )
            return float(explicit)
        return c

    def _log_ratio(self, s: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(s, dtype=complex)
        for a, sc in self.params.upper:
            acc = acc + log_gamma_complex_vec(sc * s + a)
        for b, sc in self.params.lower:
            acc = acc - log_gamma_complex_vec(sc * s + b)
        return acc

    # ------------------------------------------------------------------
    # contour route
    # ------------------------------------------------------------------

    def _g_values(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """ratio(s) minus its subtracted asymptotic part, plus |subtraction|.

        Returned as (g, |sub|); the second array feeds the degeneracy and
        truncation heuristics.
        """
        log_ratio = self._log_ratio(s)
        w_inv = 1.0 / s
        poly = np.zeros_like(s, dtype=complex)
        for r in range(self._n_sub, -1, -1):
            poly = poly * w_inv + self._ell[r]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_sub = (
                math.log(self.eta)
                + s * math.log(self.rho)
                - self.mu * np.log(s)
                + np.log(poly)
            )
            w = log_ratio - log_sub
            w = w - 2j * math.pi * np.round(w.imag / (2.0 * math.pi))
            sub = np.exp(log_sub)
            g_accurate = sub * _cexpm1(w)
            g_plain = np.exp(log_ratio) - sub
        g = np.where(np.abs(w) < 0.5, g_accurate, g_plain)
        g = np.where(np.isfinite(g), g, g_plain)
        return g, np.abs(sub)

    def _build_contour(self) -> None:
        nodes, weights = gauss_legendre(_PANEL_POINTS)
        explicit_t = self.config.contour_cutoff
        n_panels = _MAX_PANELS if explicit_t is None else max(1, int(math.ceil(explicit_t)))

        taus: list[np.ndarray] = []
        gs: list[np.ndarray] = []
        ws: list[np.ndarray] = []
        prev_peak = math.inf
        floor_streak = 0
        for j in range(n_panels):
            lo, hi = float(j), float(j + 1)
            if explicit_t is not None:
                hi = min(hi, explicit_t)
                if hi <= lo:
                    break
            half = 0.5 * (hi - lo)
            tau = 0.5 * (lo + hi) + half * nodes
            s = self._c + 1j * tau
            g, sub = self._g_values(s)
            taus.append(tau)
            gs.append(g)
            ws.append(weights * half)
            self._sub_peak = max(self._sub_peak, float(np.max(sub)))
            panel_peak = float(np.max(np.abs(g)))
            self._g_peak = max(self._g_peak, panel_peak)
            if explicit_t is None and j >= 20:
                if panel_peak <= 1e-12 * self._g_peak:
                    break
                if self._g_peak <= _DEGENERATE_RATIO * self._sub_peak:
                    # the gamma-product ratio matches its asymptotic form
                    # exactly on the whole grid: nothing left to integrate
                    break
                # Past the panel where rounding noise in the log-space
                # subtraction overtakes the true tau^-(n_sub+1) decay, panel
                # peaks stop shrinking and further panels only add noise.
                deep_tail = panel_peak <= 1e-6 * self._g_peak
                if deep_tail and panel_peak >= 0.9 * prev_peak:
                    floor_streak += 1
                    if floor_streak >= 3:
                        break
                else:
                    floor_streak = 0
            prev_peak = panel_peak

        self._tau = np.concatenate(taus)
        self._gl_w = np.concatenate(ws)
        self._g = np.concatenate(gs)
        self.degenerate = self._g_peak <= _DEGENERATE_RATIO * self._sub_peak

    def _addback(self, t: np.ndarray) -> np.ndarray:
        """Analytic inverse transform of the subtracted 1/s-power terms.

        Each subtracted term eta rho^s s^(-(mu+r)) transforms back to
        eta ln(rho/t)^(mu+r-1) / gamma(mu+r) on (0, rho).  Terms whose
        exponent mu+r is a non-positive integer are the endpoint atoms:
        the reciprocal gamma kills them here, which is exactly right since
        atoms contribute nothing on the open interval.
        """
        u = np.log(self.rho / t)
        acc = np.zeros_like(t)
        for r in range(self._n_sub + 1):
            x = self.mu + r
            if x < 1e-9:
                continue
            acc += self._ell[r] * u ** (x - 1.0) / gamma_real(x)
        return self.eta * acc

    def _contour_density(self, t: np.ndarray) -> np.ndarray:
        """H(t) from the contour, _CONTOUR_CHUNK points at a time: each chunk
        holds a complex (points x tau) array."""
        if self.degenerate:
            return np.zeros_like(t)
        weighted = self._gl_w * self._g
        integral = np.empty_like(t)
        for i in range(0, t.size, _CONTOUR_CHUNK):
            phase = np.exp(-1j * np.outer(np.log(t[i : i + _CONTOUR_CHUNK]), self._tau))
            integral[i : i + _CONTOUR_CHUNK] = (phase * weighted).sum(axis=1).real
        return t ** (-self._c) / math.pi * integral + self._addback(t)

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

    def _ensure_residue_table(self, t_max: float) -> None:
        """Laurent coefficients of every pole cluster that H(t <= t_max) needs.

        Residue terms decay like (t/rho)^sigma, so the table runs out to the
        pole abscissa where that falls below 1e-3 tol, or until the circle
        nodes of ``max_residue_terms`` are spent (``_pole_gen_exhausted``).
        """
        if self.degenerate or self._pole_gen_exhausted:
            return
        first = -self.constants.gamma_abscissa  # smallest pole abscissa
        sigma_target = first + math.log(1e-3 * self.config.tol) / math.log(t_max / self.rho)
        # quantise upward so creeping t_max values don't trigger a rebuild per
        # call; stop where one upper row alone has more poles than the budget
        # has clusters, which near rho keeps the pole list finite
        budget = self.config.max_residue_terms
        sigma_target = min(
            10.0 * math.ceil(sigma_target / 10.0),
            min((a + budget // _CIRCLE_NODES) / sc for a, sc in self.params.upper),
        )
        if sigma_target <= self._res_sigma_built:
            return
        sigmas = self._generate_poles(sigma_target)
        # cluster identical (within merge gap) pole positions
        clusters: list[list[float]] = []
        for sg in sigmas:
            if clusters and sg - clusters[-1][-1] <= _MERGE_GAP:
                clusters[-1].append(sg)
            else:
                clusters.append([sg])
        centers = [sum(c) / len(c) for c in clusters]
        for left, right in zip(centers, centers[1:]):
            gap = right - left
            if gap < _COLLISION_GAP:
                raise PoleCollisionError(
                    f"numerator pole ladders nearly collide (gap {gap:.2e} at sigma ~ {left:.6g}); "
                    "neither a merged multiple pole nor separated circles is numerically safe"
                )

        theta = 2.0 * math.pi * (np.arange(_CIRCLE_NODES) + 0.5) / _CIRCLE_NODES
        unit = np.exp(1j * theta)
        table: list[tuple[float, np.ndarray]] = []
        nodes_used = 0
        for idx, center in enumerate(centers):
            gap = math.inf
            if idx > 0:
                gap = min(gap, center - centers[idx - 1])
            if idx + 1 < len(centers):
                gap = min(gap, centers[idx + 1] - center)
            radius = min(0.3 * gap, 0.25)
            if nodes_used + _CIRCLE_NODES > budget:
                self._pole_gen_exhausted = True
                break
            # c_j = (1/2 pi i) oint ratio(s) (s - s0)^j ds by the midpoint rule
            # on |s - s0| = radius, s0 = -center
            d = radius * unit
            w = np.exp(self._log_ratio(-center + d) + math.log(radius / _CIRCLE_NODES) + 1j * theta)
            coeffs = np.array([float(np.sum(w * d**j).real) for j in range(len(clusters[idx]))])
            table.append((center, coeffs))
            nodes_used += _CIRCLE_NODES
        self._clusters = table
        self._res_nodes_used = nodes_used
        self._res_sigma_built = sigma_target

    def _principal_density(self, t: np.ndarray) -> np.ndarray:
        """H(t) as the sum of every pole cluster's principal-part residue.

        With the Laurent coefficients c_j of ratio(s) at s0 = -center, the
        residue of ratio(s) t^-s there is t^center sum_{j<m} c_j (-ln t)^j / j!
        for m merged poles: exact at any t, where a circle sum of
        ratio(s) t^-s would alias once radius |ln t| passes ~5.  Raises
        NonConvergentError when the node budget ends the table before the
        last cluster's term is negligible.
        """
        if t.size == 0:
            return np.zeros_like(t)
        self._ensure_residue_table(float(np.max(t)))
        log_t = np.log(t)
        acc = np.zeros_like(t)
        term = acc
        for center, coeffs in self._clusters:
            poly = np.zeros_like(t)
            for j in reversed(range(coeffs.size)):
                poly = poly * -log_t / (j + 1) + coeffs[j]
            term = np.exp(center * log_t) * poly
            acc += term
        tol = self.config.tol
        if self._pole_gen_exhausted and np.max(np.abs(term)) > tol * np.max(np.abs(acc)):
            raise NonConvergentError(
                "residue clusters failed to decay within the node budget; "
                "use the contour method this close to the support endpoint"
            )
        return acc

    def _split_density(self, t: np.ndarray, switch: float) -> np.ndarray:
        """H from principal-part residues up to switch * rho, contour above.

        When the node budget ends the residue table at sigma_last, the cut
        drops to the table's reach rho (1e-3 tol)^(1/(sigma_last - first)),
        below which its last term has decayed past 1e-3 tol.
        """
        low = t <= switch * self.rho
        if np.any(low):
            self._ensure_residue_table(float(np.max(t[low])))
            if self._pole_gen_exhausted:
                span = self._clusters[-1][0] + self.constants.gamma_abscissa
                reach = self.rho * (1e-3 * self.config.tol) ** (1.0 / span) if span > 0 else 0.0
                low &= t <= reach
        out = np.empty_like(t)
        out[low] = self._principal_density(t[low])
        out[~low] = self._contour_density(t[~low])
        return out

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------

    def density(self, t: np.ndarray, method: HfunMethod | None = None) -> np.ndarray:
        """Regular part H(t) on the open support interval, vectorised."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t <= 0.0) or np.any(t >= self.rho):
            raise OutsideDomainError(
                f"density is defined on the open interval (0, {self.rho:.6g})"
            )
        method = method or self.config.method
        if self.degenerate:
            return np.zeros_like(t)
        if method is HfunMethod.REGULARIZED_CONTOUR:
            return self._contour_density(t)
        if method is HfunMethod.RESIDUE_SERIES:
            return self._principal_density(t)
        return self._split_density(t, _AUTO_SWITCH)

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
        value is computed once.
        """
        while len(self._rule) <= level:
            lev = len(self._rule)
            h = _DE_STEP / 2**lev
            n = int(self._rule_span() / h)
            j = np.arange(-n, n + 1)
            x = h * (j if lev == 0 else j[j % 2 == 1])
            u = 0.5 * math.pi * np.sinh(x)
            t = self.rho / (1.0 + np.exp(-2.0 * u))
            w = h * 0.25 * math.pi * self.rho * np.cosh(x) / np.cosh(u) ** 2
            inside = t < self.rho
            t = t[inside]
            self._rule.append((t, w[inside] * self._split_density(t, _RULE_SWITCH)))
        return self._rule[level]

    def _rule_span(self) -> float:
        """X such that the rule's smallest node, t = rho e^(pi sinh(-X)), is t_min."""
        tiny = _DE_TINY
        first = -self.constants.gamma_abscissa  # H ~ t^first near 0
        if first > 0.0:
            tiny = max(min(tiny, (1e-3 * self.config.tol) ** (1.0 / first)), _DE_FLOOR)
        return math.asinh(-math.log(tiny) / math.pi)

    def _integral(self, fn: Callable[[np.ndarray], np.ndarray]) -> tuple[float, float]:
        """(integral_0^rho fn(t) H(t) dt, |difference of the last two levels|).

        Halves the step until two successive tanh-sinh sums agree to
        ``config.tol`` relative to the integral of |fn H|, which is also the
        rounding floor of the sum; raises QuadratureFailure when the finest
        level still disagrees or the sum is not finite.
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
                diff = abs(total - prev)
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


def _cexpm1(w: np.ndarray) -> np.ndarray:
    """exp(w) - 1 for complex w without cancellation near w = 0."""
    re = w.real
    im = w.imag
    real = np.expm1(re) * np.cos(im) - 2.0 * np.sin(0.5 * im) ** 2
    imag = np.exp(re) * np.sin(im)
    return real + 1j * imag


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
