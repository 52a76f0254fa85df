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
  numerator gammas.  Poles closer than 0.01 of the smallest ladder spacing
  form one group with nodes s_0..s_(m-1), coincident ones included, and a
  lone pole is a group of one.  A group's residues sum to the divided
  difference of R(s) t^(-s) over its nodes, R(s) = ratio(s) prod_j (s - s_j)
  its regular part.  That is taken once per evaluator, in closed form, from
  the Taylor series of R and of t^(-s) about the group's centre, so it does
  not cancel however close the nodes are: R's series is a product of
  per-factor series from log-gamma Taylor rows (DLMF 5.7, 5.15) and the
  explicit eps of each factor at or below 1/2, exactly 0 where lower poles
  cancel the group.  Its leading coefficient R(centre) is a product of
  gamma values, so a lone pole's residue is (-1)^n / (n! A) times the
  other factors' gamma values (Kilbas & Saigo, H-Transforms, 2004, ch. 1).
  Per group that is t^centre times a fixed power series in ln t, summed by
  Horner per t, so each t rounds alike in any grid.  The terms decay like
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
a rho/32 grid) where the endpoint estimate exceeds 16 eps |H|, or out to
its first _MAX_GROUPS pole groups.  Out to the table's reach AUTO and the
integration rule take, per t, the route with the smaller estimate; above
it the endpoint series serves.  No switch point is measured or configured.

A parameter set whose ratio IS its polynomial part (upper == lower rows,
duplication- or multiplication-formula collapses) has H identically zero.
That degeneracy is read off the residue table: every pole group within
_TABLE_STEP of the first pole has a row of exactly 0.  Both routes then
return exact zeros.

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
from .params import _INT_TOL, ParameterSet, correction_coeffs, derive_constants
from .quadrature import integrate_levels, tanh_sinh, tanh_sinh_reach
from .series import IdentityRecord, _atoms, _record
from .special import _log_gamma_taylor, log_abs_gamma_signed

__all__ = [
    "HfunMethod",
    "MeasureEvaluator",
    "get_evaluator",
    "hfun_nonneg_scan",
]

_EPS = float(np.finfo(float).eps)
_TOL = 1e-9  # accuracy the residue table and the integration rule aim at
_MAX_GROUPS = 250  # pole groups of the residue table
# poles closer than this many of the smallest ladder spacings form one group.
# Apart, near poles carry large residues of opposite sign that cancel: a pole
# 2.7e-3 spacings from a pair lost 8.9e-9 of H that way, one 0.01 spacings
# away 1.5e-10, under _TOL.  A wider gap costs table width, which grows with
# a group's spread times log_span ~ 690 in _residue_rows: one group of
# those three poles widened that set's table from 5 to 34 columns
_GROUP_GAP = 0.01
_TABLE_STEP = 10.0  # sigma step of the residue table's growth and degeneracy check
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
        # (coef, |coef|) from the highest power down, for _endpoint's Horner
        self._end_pairs = np.stack([self._end_coef, np.abs(self._end_coef)], axis=1)[::-1, :, None]

        # the benchmark counts work as _res_nodes_used + _tau.size: the
        # residue table's poles; nothing else samples the density at build
        # time, so _tau stays empty
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
        self._res_centres, self._res_coeffs, self._res_nodes_used, exhausted = (
            self._build_table(sigma)
        )
        # the largest sigma target RESIDUE_SERIES reads this table for (an
        # exhausted table cannot grow, so every one), and the table's reach:
        # the t where its tail meets 1e-3 tol
        self._res_sigma = math.inf if exhausted else sigma
        span = (float(self._res_centres[-1]) if exhausted else sigma) - self._first
        self._reach = self.rho * (1e-3 * _TOL) ** (1.0 / span) if span > 0 else 0.0
        leading = self._res_centres <= self._first + _TABLE_STEP
        self.degenerate = not np.any(self._res_coeffs[leading])

    # ------------------------------------------------------------------
    # endpoint route
    # ------------------------------------------------------------------

    def _endpoint(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(H, |last two terms|, sum |terms|) of the endpoint series at u = ln(rho/t).

        H and sum |terms| take one Horner pass together, over the stacked
        (coef, |coef|) pairs.
        """
        acc = np.zeros((2,) + u.shape)
        for pair in self._end_pairs:
            acc *= u
            acc += pair
        value, mass = acc
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

    def _build_table(self, sigma: float) -> tuple[np.ndarray, np.ndarray, int, bool]:
        """Residue table of every pole group with centre up to sigma:
        (centres, power-series rows, poles, exhausted).

        The table is exhausted, and ends early, past its first _MAX_GROUPS
        groups, or at the sigma where one upper row alone has that many poles.
        """
        upper = self.params.upper
        cap = min((a + _MAX_GROUPS) / sc for a, sc in upper)
        exhausted = sigma > cap
        sigma = min(sigma, cap)
        # one ladder spacing past the target, so the last group's neighbour is known
        spacing = min(1.0 / sc for _, sc in upper)
        limit = sigma + spacing
        # the ladders (a + n)/sc up to limit, counted with a spare n against
        # rounding, each pole labelled with its upper row
        ladders = [(a + np.arange(max(math.floor(limit * sc - a) + 2, 0))) / sc
                   for a, sc in upper]
        poles = np.concatenate(ladders)
        rows = np.repeat(np.arange(len(upper)), [ladder.size for ladder in ladders])
        order = np.argsort(poles, kind="stable")
        keep = poles[order] <= limit
        poles, rows = poles[order][keep], rows[order][keep]
        # a pole within _GROUP_GAP spacing of the one before joins its group;
        # row g of members (owners) holds group g's poles (their upper rows),
        # padded with zeros (-1)
        start = np.flatnonzero(np.diff(poles, prepend=-math.inf) > _GROUP_GAP * spacing)
        size = np.diff(start, append=poles.size)
        inside = np.arange(np.max(size)) < size[:, None]
        members = np.zeros(inside.shape)
        members[inside] = poles
        owners = np.full(inside.shape, -1)
        owners[inside] = rows
        # cumsum adds each row's poles in order (and its zero padding), on every Python
        centre = np.cumsum(members, axis=1)[:, -1] / size
        # the groups centred up to sigma, a prefix, and of them the first _MAX_GROUPS
        g = int(np.searchsorted(centre, sigma, side="right"))
        k = min(g, _MAX_GROUPS)
        centre = centre[:k]
        half = np.max(np.where(inside[:k], np.abs(members[:k] - centre[:, None]), 0.0), axis=1)
        left = centre - np.append(-math.inf, poles[start[1:k] - 1])
        right = np.append(poles[start[1:]], limit)[:k] - centre
        # the Taylor series of a group's regular part about its centre
        # converges like (half/near)^n: its size, plus the terms that take
        # that below 1e-17, so a coincident group takes exactly its size
        with np.errstate(divide="ignore"):
            extra = np.ceil(math.log(1e-17) / np.log(half / np.minimum(left, right)))
        coeffs = self._residue_rows(members[:k], owners[:k], size[:k], centre,
                                    size[:k] + extra.astype(int))
        return centre, coeffs, int(np.sum(size[:k])), exhausted or k < g

    def _residue_rows(self, members: np.ndarray, owners: np.ndarray, size: np.ndarray,
                      centre: np.ndarray, terms: np.ndarray) -> np.ndarray:
        """Residue power series of the groups, one row each: group g's
        residues at t sum to t^centre[g] sum_n rows[g, n] (-ln t)^n.

        Group g has the poles ``members[g, :size[g]]`` of the upper rows
        ``owners[g, :size[g]]``; the groups with the same size and Taylor
        order are taken together.  Their residues at t are the divided
        difference of R(s) t^(-s) over the poles s_0..s_(m-1), R the regular
        part.  About s_c = -centre, R = sum_i r_i h^i (``_regular_series``)
        and t^(-s) = t^centre sum_n (-ln t)^n h^n / n!, and the divided
        difference of h^N over e_j = s_j - s_c is the complete homogeneous
        polynomial h_(N-m+1)(e_0..e_(m-1)) (de Boor, Surveys in Approximation
        Theory 1, 2005), so rows[g, n] = sum_i r_i h_(i+n-m+1)(e) / n!.  A
        lone pole's row is its residue r_0.
        """
        coeffs = np.zeros((centre.size, 0))
        # largest |ln t| any caller of the table can ask for
        log_span = -math.log(_DE_FLOOR) + abs(math.log(self.rho))
        for m, n in sorted(set(zip(size.tolist(), terms.tolist()))):
            idx = np.flatnonzero((size == m) & (terms == n))
            offsets = centre[idx, None] - members[idx, :m]  # s_j - s_c
            r = self._regular_series(owners[idx, :m], centre[idx], n)
            # Taylor terms of exp(-(s - s_c) ln t) past the group size, until
            # (max |s_j - s_c| |ln t|)^j / j! < 1e-17
            reach = float(np.max(np.abs(offsets))) * log_span
            extra, term = 0, reach
            while term > 1e-17:
                extra += 1
                term *= reach / (extra + 1)
            width = m + extra
            # h[:, k] = h_(k-m+1)(e), zero below k = m - 1, so that row j is
            # the Hankel product sum_i r_i h[:, i + j]
            h = np.zeros((idx.size, n + width - 1))
            h[:, m - 1] = 1.0
            for k in range(m):
                # h_j(e_0..e_k) = h_j(e_0..e_(k-1)) + e_k h_(j-1)(e_0..e_k)
                for j in range(m, h.shape[1]):
                    h[:, j] += offsets[:, k] * h[:, j - 1]
            rows = np.stack([np.sum(r * h[:, j : j + n], axis=1) for j in range(width)], axis=1)
            rows /= np.array([math.factorial(j) for j in range(width)], dtype=float)
            if width > coeffs.shape[1]:
                coeffs = np.pad(coeffs, ((0, 0), (0, width - coeffs.shape[1])))
            coeffs[idx, :width] = rows
        return coeffs

    def _regular_series(self, owners: np.ndarray, centre: np.ndarray, terms: int) -> np.ndarray:
        """r_0 .. r_(terms-1) of R(s_c + h) = sum_i r_i h^i, one row per group.

        r_0 = R(s_c) is a product of one gamma value per factor, gamma(x) at
        x = shift - scale centre, with an upper factor whose pole is in the
        group taken as eps gamma(x) / A (eps = x + n, n = rint(-x)), or
        (-1)^n / (n! A) where eps is 0.  A lone pole's r_0 is its residue,
        and its group (terms == 1) takes no Taylor row: none of the work
        below, log-gamma rows, signs or eps factors, is done for it.

        For the other terms each factor gamma(x + A h) is expanded about
        h = 0.  With x >= 1/2 that is ``special._log_gamma_taylor``.  Below,
        with eps = x + n + A h,
        gamma(x + A h) = (-1)^n gamma(1 + eps) gamma(1 - eps) / (eps gamma(n + 1 - eps)),
        whose log-gammas all have positive arguments.  The explicit eps of an
        upper factor with its pole in the group cancels that pole's node
        factor s - s_j, leaving 1/A; any other upper factor's 1/eps is a
        geometric series; a lower factor's eps multiplies R, and is exactly
        A h where ``_pole_order`` puts its pole at the centre, so a group
        that a lower pole cancels is exactly zero.  The product of these
        explicit factors with exp(L(h) - L(0)), L the log-gamma sum, is
        scaled by exp(L(0)) = r_0 / (its constant term), so every term
        shares r_0's digits, or by exp(L(0)) itself where a lower pole on
        the centre zeroes that term.
        """
        groups = centre.size
        lone = terms == 1  # a lone pole's group takes r_0 alone: no Taylor row
        args, steps, weights = [], [], []  # log gamma(arg + step h), added with weight
        poly = np.zeros((groups, terms))  # the signs and the explicit eps factors
        poly[:, 0] = 1.0
        heads, powers = [], []  # r_0 = head prod gamma(heads)^powers
        head = np.ones(groups)
        for side, row in ((1.0, self.params.upper), (-1.0, self.params.lower)):
            for i, (a, sc) in enumerate(row):
                x = a - sc * centre
                small = x < 0.5
                n = np.where(small, np.rint(-x), 0.0)
                eps = x + n
                if side < 0:
                    # R gains eps_0 + A h
                    eps_0 = np.where(np.abs(eps) <= _INT_TOL * sc, 0.0, eps)
                    head[small & (eps_0 == 0.0)] = 0.0
                    heads.append(x)
                    powers.append(np.full(groups, -1.0))
                else:
                    pole = np.any(owners == i, axis=1)
                    exact = pole & (eps == 0.0)
                    head[pole] *= np.where(exact, (-1.0) ** n, eps)[pole] / sc
                    heads.append(np.where(exact, n + 1.0, x))
                    powers.append(np.where(exact, -1.0, 1.0))
                if lone:
                    continue
                args += [np.where(small, 1.0 + eps, x), np.where(small, 1.0 - eps, 1.0),
                         np.where(small, n + 1.0 - eps, 1.0)]
                steps += [sc, -sc, -sc]
                weights += [np.full(groups, side), side * small, -side * small]
                poly[small & (n % 2 == 1)] *= -1.0
                if side < 0:
                    poly[small, 1:] = eps_0[small, None] * poly[small, 1:] + sc * poly[small, :-1]
                    poly[small, 0] *= eps_0[small]
                    continue
                poly[pole] /= sc
                # R gains 1/(eps_0 + A h): y_j = (p_j - A y_(j-1)) / eps_0
                sel = small & ~pole
                for j in range(terms):
                    if j:
                        poly[sel, j] -= sc * poly[sel, j - 1]
                    poly[sel, j] /= eps[sel]
        heads, powers = np.array(heads), np.array(powers)
        heads[:, head == 0.0] = 1.0
        # the product of mantissas, with the binary exponents added apart so
        # that no partial product leaves the normal range, keeps more digits
        # than the exp of a log-gamma sum.  That sum serves the groups with a
        # gamma value outside the normal range (past 171.62, or below -170)
        gammas = np.reshape([math.gamma(v) if v < 171.0 else math.inf
                             for v in heads.ravel().tolist()], heads.shape)
        magnitude = np.abs(gammas)
        outside = ~np.all((magnitude >= np.finfo(float).tiny) & (magnitude < math.inf), axis=0)
        gammas[:, outside] = 1.0
        mantissas, exponents = np.frexp(np.where(powers < 0, 1.0 / gammas, gammas))
        value = np.ldexp(np.prod(mantissas, axis=0), np.sum(exponents, axis=0))
        if np.any(outside):
            far = heads[:, outside]
            log_abs, signs = np.reshape([log_abs_gamma_signed(v) for v in far.ravel().tolist()],
                                        far.shape + (2,)).transpose(2, 0, 1)
            value[outside] = np.prod(signs, axis=0) * np.exp(np.sum(powers[:, outside] * log_abs,
                                                                    axis=0))
        if lone:
            return (head * value)[:, None]
        taylor = _log_gamma_taylor(np.array(args), terms)
        logs = np.einsum("fg,fgk->gk", np.array(weights),
                         taylor * np.power.outer(np.array(steps), np.arange(terms))[:, None, :])
        # exp(L(h) - L(0)) by n e_n = sum_(k=1..n) k L_k e_(n-k)
        series = np.zeros((groups, terms))
        series[:, 0] = 1.0
        for j in range(1, terms):
            series[:, j] = np.sum(np.arange(1, j + 1) * logs[:, 1 : j + 1] * series[:, j - 1 :: -1],
                                  axis=1) / j
        product = np.zeros((groups, terms))
        for j in range(terms):
            product[:, j:] += poly[:, j : j + 1] * series[:, : terms - j]
        # exp(L(0)) = r_0 / poly_0, unless a lower pole at the centre zeroes poly_0
        scale = np.exp(logs[:, 0])
        known = poly[:, 0] != 0.0
        scale[known] = head[known] * value[known] / poly[known, 0]
        return product * scale[:, None]

    def _residues(
        self, log_t: np.ndarray, centres: np.ndarray, coeffs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(H, |last two group terms|, sum |group terms|) from the residue
        table rows ``centres`` and ``coeffs``; each t's entries are the same
        bits in any grid."""
        value = np.zeros_like(log_t)
        tail = np.zeros_like(log_t)
        mass = np.zeros_like(log_t)
        for i in range(0, log_t.size, _RESIDUE_CHUNK):
            lt = log_t[i : i + _RESIDUE_CHUNK]
            # Horner in -ln t over the power columns, elementwise, so each t
            # rounds alike in any block, seeded with the last column, the
            # value a first step from zeros gives
            series = np.zeros((lt.size, centres.size))
            if coeffs.shape[1]:
                series += coeffs[:, -1]
                neg_lt = -lt[:, None]
                for column in coeffs.T[-2::-1]:
                    series *= neg_lt
                    series += column
            terms = np.exp(np.multiply.outer(lt, centres)) * series
            value[i : i + _RESIDUE_CHUNK] = terms.sum(axis=1)
            tail[i : i + _RESIDUE_CHUNK] = np.abs(terms[:, -2:]).sum(axis=1)
            mass[i : i + _RESIDUE_CHUNK] = np.abs(terms).sum(axis=1)
        return value, tail, mass

    def _residue_density(self, t: np.ndarray) -> np.ndarray:
        """H(t) from the residues alone: the evaluator's table where its
        tail at max t is below 1e-3 tol, else a table built for max t and
        dropped after the call.

        Raises NonConvergentError when the group cap ends the table
        before the last groups' terms are negligible.
        """
        if t.size == 0:
            return np.zeros_like(t)
        sigma = self._table_sigma(float(np.max(t)), 1e-3 * _TOL)
        if sigma <= self._res_sigma:
            centres, coeffs = self._res_centres, self._res_coeffs
            exhausted = self._res_sigma == math.inf
        else:
            centres, coeffs, _, exhausted = self._build_table(sigma)
        value, tail, _ = self._residues(np.log(t), centres, coeffs)
        if exhausted and np.max(tail) > _TOL * np.max(np.abs(value)):
            raise NonConvergentError(
                "residue groups failed to decay within the table's group cap; "
                "use the endpoint series this close to the support endpoint"
            )
        return value

    def _split_density(self, t: np.ndarray, log_t: np.ndarray, u: np.ndarray) -> np.ndarray:
        """H from whichever route has the smaller error estimate at each t.

        The residues of the evaluator's table are consulted out to its
        reach, and wherever the endpoint series misses 1e-3 tol of H; the
        endpoint series serves the rest.  NonConvergentError where
        neither estimate is within max(tol, _ENDPOINT_ULPS eps) of its sum
        of |terms|: the group cap ended the residues short of the endpoint
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
                "neither series converges at some t: the group cap ended the "
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
        The result has t's shape, a scalar giving shape (1,).
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.all((t > 0.0) & (t < self.rho)):
            raise OutsideDomainError(
                f"density is defined on the open interval (0, {self.rho:.6g})"
            )
        return self._flat_density(t.ravel(), method).reshape(t.shape)

    def _flat_density(self, t: np.ndarray, method: HfunMethod) -> np.ndarray:
        """``density`` on a 1-D array of t inside the support."""
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
