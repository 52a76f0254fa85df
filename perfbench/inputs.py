"""Seeded input generation for the three benchmark workloads.

Everything here is plain Python driven by ``random.Random(seed)``: the same
seed gives byte-identical inputs, and foxwright only ever sees the numbers
produced here.  Inputs are stratified (fixed set templates, fixed counts per
z band, jittered grids) so that two seeds exercise the same mix of work and
differ only in the continuous parameters; that keeps seed-to-seed spread of
the end-to-end metrics small.

Each workload also carries a ``probe``: inputs in the weak spots ROADMAP
lists, where foxwright is known to miss the tolerance at this commit (the
density near t -> 0 and t -> rho, the series where alternating terms cancel).
The timed loop leaves them out, so that no timed operation fails; the worker
evaluates the probe once, untimed, and the run reports its misses as known
defects.  Series points are sorted into the probe by their cancellation
factor, which needs the oracle, so ``run.py`` does that split.
"""

from __future__ import annotations

import math
import random

# Relative tolerances an ok value must meet against the oracle.  A miss counts
# as a failed item (a known defect in the probe); correct digits are reported
# separately.
TOLERANCES = {
    "series-sweep": 1e-8,
    "density-cold": 1e-8,
    "identity-cli": 1e-8,
}

CATALOG = {
    "double-pole": ([(0.5, 0.5), (1.5, 0.5)], [(1.0, 0.5), (1.0, 0.5)]),
    "twin-quarter": ([(1.0, 1.0)], [(0.25, 0.5), (0.25, 0.5)]),
    "exp-collapse": ([(1.0, 1.0)], [(0.5, 0.5), (1.0, 0.5)]),
    "identity": ([(1.0, 1.0)], [(1.0, 1.0)]),
}

# Random series sets: (upper pairs, lower pairs) with the shift of each pair
# a centre the seed moves by up to +-0.1.  Entire ones have
# delta = sum(lower scales) - sum(upper scales) > -1, disk ones delta = -1.
_ENTIRE_TEMPLATES = [
    ([(1.2, 1.0)], [(0.8, 0.5), (1.6, 0.5)]),  # delta 0, exp-collapse shape
    ([(0.7, 0.5), (1.4, 0.5)], [(0.9, 0.5), (1.3, 0.5)]),  # delta 0, double-pole shape
    ([(1.1, 0.25)], [(0.6, 0.75)]),  # delta 0.5
    ([(1.0, 1.0), (1.8, 0.25)], [(1.5, 1.0)]),  # delta -0.25
]
_DISK_TEMPLATES = [
    ([(1.6, 1.0), (1.9, 1.0)], [(2.4, 1.0)]),  # rho 1
    ([(2.0, 1.0), (0.6, 0.5)], [(1.1, 0.5)]),  # rho 1
    ([(2.2, 2.0)], [(2.5, 1.0)]),  # rho 4
    ([(1.8, 1.5), (1.4, 0.5)], [(0.5, 1.0)]),  # rho ~1.30
]

# density-cold base classes: (p, scale, upper shifts, mu, lower offsets).
# Lower shift j is a_j + mu/p + offset_j (offsets sum to 0).  The seed moves
# each upper shift and offset by up to +-0.03 and a positive mu by up to
# +-0.1, so every seed meets the same kinds of pole structure; each call then
# shifts its base by its own delta in (0, 1).  Seven classes, an odd number,
# keep the median and p90 call inside one class instead of on the edge
# between two.
_DENSITY_CLASSES = [
    (1, 0.5, [0.9], 1.5, [0.0]),
    (2, 0.5, [0.6, 1.35], 0.0, [0.2, -0.2]),
    (2, 1.0, [0.8, 1.55], -1.0, [-0.15, 0.15]),
    (2, 0.5, [0.5, 1.7], 2.5, [0.25, -0.25]),
    (3, 1.0, [0.4, 1.15, 1.9], 0.0, [0.1, -0.3, 0.2]),
    (3, 0.5, [0.7, 1.25, 2.05], -1.0, [-0.2, 0.05, 0.15]),
    (3, 1.0, [0.5, 1.3, 2.15], 1.75, [0.3, -0.1, -0.2]),
]
# The timed density grid covers the interior band of the support; the probe
# grid covers both ends, the AUTO switch at 0.8 rho included.
DENSITY_BAND = (0.25, 0.7)
DENSITY_POINTS = 1000
DENSITY_CHECKS = 32
DENSITY_SHIFTS = 20_000
PROBE_END_POINTS = 50
PROBE_EVERY = 5


def rho_of(upper, lower) -> float:
    log_rho = sum(s * math.log(s) for _, s in upper) - sum(s * math.log(s) for _, s in lower)
    return math.exp(log_rho)


def _jittered(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n points, one uniformly inside each of n equal cells of [lo, hi)."""
    width = (hi - lo) / n
    return [lo + width * (i + rng.random()) for i in range(n)]


def _near_centres(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n points at the centres of n equal cells of [lo, hi), each moved by up
    to 2% of a cell."""
    width = (hi - lo) / n
    return [lo + width * (i + 0.5 + 0.02 * (2.0 * rng.random() - 1.0)) for i in range(n)]


def _complex_disk(rng: random.Random, radius: float, n: int) -> list[complex]:
    """n complex points in |z| < radius, stratified in area and in angle."""
    radii = [radius * math.sqrt(u) for u in _jittered(rng, 0.0, 1.0, n)]
    angles = _jittered(rng, 0.0, 2.0 * math.pi, n)
    # a fixed pairing of radius and angle cells (n is coprime with 3), so
    # each seed puts the same number of points deep in the left half-plane
    return [complex(radii[i] * math.cos(angles[3 * i % n]), radii[i] * math.sin(angles[3 * i % n]))
            for i in range(n)]


def _random_rows(rng: random.Random, template) -> tuple[list, list]:
    ups, lows = template
    upper = [(round(a + rng.uniform(-0.1, 0.1), 6), sc) for a, sc in ups]
    lower = [(round(b + rng.uniform(-0.1, 0.1), 6), sc) for b, sc in lows]
    return upper, lower


def series_sweep(seed: int) -> dict:
    """Catalog plus random entire and disk sets, 32 stratified z per set.

    Entire sets get 8 real z in [-60, -20), 6 in [-20, 0), 10 in [0, 60] and
    8 complex with |z| <= 30.  Disk sets get 16 real and 16 complex z with
    |z| < 0.8 / rho.  Where the terms cancel (deep in the left half-plane and
    at large complex z) the series is wrong while it reports CONVERGED;
    ``run.py`` moves those points to the probe by their cancellation factor.
    """
    rng = random.Random(f"series-sweep:{seed}")
    sets = [{"name": name, "upper": up, "lower": lo} for name, (up, lo) in CATALOG.items()]
    kinds = ["entire"] * len(sets)
    for i, tpl in enumerate(_ENTIRE_TEMPLATES):
        up, lo = _random_rows(rng, tpl)
        sets.append({"name": f"entire-{i}", "upper": up, "lower": lo})
        kinds.append("entire")
    for i, tpl in enumerate(_DISK_TEMPLATES):
        up, lo = _random_rows(rng, tpl)
        sets.append({"name": f"disk-{i}", "upper": up, "lower": lo})
        kinds.append("disk")

    points = []
    for idx, (s, kind) in enumerate(zip(sets, kinds)):
        if kind == "entire":
            zs: list = _jittered(rng, -60.0, -20.0, 8) + _jittered(rng, -20.0, 0.0, 6)
            zs += _jittered(rng, 0.0, 60.0, 10) + _complex_disk(rng, 30.0, 8)
        else:
            radius = 0.8 / rho_of(s["upper"], s["lower"])
            zs = _jittered(rng, -radius, radius, 16) + _complex_disk(rng, radius, 16)
        for z in zs:
            z = complex(z)
            points.append([idx, round(z.real, 9), round(z.imag, 9)])
    order = list(range(len(points)))
    rng.shuffle(order)
    return {"workload": "series-sweep", "sets": sets, "points": points, "order": order}


def density_grid() -> list[float]:
    """1000 t evenly spaced over the interior band of the support (rho = 1)."""
    lo, hi = DENSITY_BAND
    n = DENSITY_POINTS
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def probe_grid() -> list[float]:
    """Both ends of the support outside the band: t geometric from 1e-3 up
    to the band, and 1 - t geometric from the band down to 1e-4."""
    lo, hi = DENSITY_BAND
    n = PROBE_END_POINTS
    left = [1e-3 * (lo / 1e-3) ** (i / n) for i in range(n)]
    right = [1.0 - (1.0 - hi) * (1e-4 / (1.0 - hi)) ** ((i + 1) / n) for i in range(n)]
    return left + right


def _density_base(rng: random.Random, p: int, scale: float, a0, mu0, off0) -> dict:
    mu = mu0 if mu0 <= 0 else round(mu0 + rng.uniform(-0.1, 0.1), 6)
    a = [round(x + rng.uniform(-0.03, 0.03), 6) for x in a0]
    jitter = [rng.uniform(-0.03, 0.03) for _ in range(p)]
    mean = sum(jitter) / p
    b = [round(x + mu / p + o + e - mean, 6) for x, o, e in zip(a, off0, jitter)]
    b[-1] = round(sum(a) + mu - sum(b[:-1]), 6)
    return {"upper": [(x, scale) for x in a], "lower": [(y, scale) for y in b], "mu": mu}


def density_cold(seed: int) -> dict:
    """Seven base classes; call i evaluates base i mod 7 shifted
    by its own delta, so every call meets a set new to the process.

    Shifting each pair by delta times its scale multiplies the density by
    t**delta, which lets the oracle reuse one base evaluation per point.
    Each base gets 32 checked grid points: both band edges and 30 spread
    over the band, one per equal cell.  The probe evaluates each base once,
    shifted by a delta of its own, on ``probe_grid`` and checks every
    ``PROBE_EVERY``-th point there, the 4 nearest each end and those within
    0.05 rho of the AUTO switch at 0.8 rho.
    """
    rng = random.Random(f"density-cold:{seed}")
    grid = density_grid()
    n = len(grid)
    bases = []
    for cls in _DENSITY_CLASSES:
        base = _density_base(rng, *cls)
        # one index per equal cell, so every seed checks the same spread of t
        rest = {1 + int(x) for x in _jittered(rng, 0, n - 2, DENSITY_CHECKS - 2)}
        base["checks"] = sorted(rest | {0, n - 1})
        bases.append(base)
    # call i uses base i % k on its (i // k)-th visit; the visits of one base
    # walk (0, 1) by the golden ratio from a seeded start, so any run length
    # spreads each base's shifts evenly
    k = len(bases)
    starts = [rng.random() for _ in range(k)]
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    deltas = [round((starts[i % k] + golden * (i // k)) % 1.0, 9) or 0.5
              for i in range(DENSITY_SHIFTS)]
    pgrid = probe_grid()
    m = len(pgrid)
    near_switch = {j for j, t in enumerate(pgrid) if 0.75 < t < 0.85}
    probe_checks = sorted(set(range(0, m, PROBE_EVERY)) | set(range(4)) | set(range(m - 4, m))
                          | near_switch)
    probe = {"workload": "density-cold", "grid": pgrid,
             "bases": [dict(base, checks=probe_checks) for base in bases],
             "deltas": [round(rng.uniform(0.05, 0.95), 9) for _ in range(k)], "calls": k}
    return {"workload": "density-cold", "bases": bases, "grid": grid, "deltas": deltas,
            "probe": probe}


def shifted_rows(rows, delta: float) -> list:
    """The pair list foxwright receives for a shifted call (float arithmetic)."""
    return [(a + delta * s, s) for a, s in rows]


def _grid_spec(lo: float, hi: float, count: int) -> str:
    return f"{lo:.4f}:{hi:.4f}:{count}"


def _list_spec(values) -> str:
    return ",".join(f"{v:.4f}" for v in values)


# identity-cli slots.  Grids are (lo, hi, count); the seed moves each end
# inward by up to 2% of the span, so every seed runs the same mix of work.
# 45 slots put the median and p90 call in the middle of one slot's calls
# (0.5 * 45 and 0.9 * 45 are half-integers) rather than between two.
_VERIFY_REPRESENTATION = [
    ("double-pole", -8.0, 2.0, 4), ("twin-quarter", -6.0, 3.0, 5), ("exp-collapse", -5.0, 2.0, 6),
    ("identity", -10.0, 3.0, 3), ("double-pole", -12.0, 1.0, 6), ("twin-quarter", -4.0, 2.0, 7),
    ("exp-collapse", -9.0, 1.5, 8), ("identity", -6.0, 4.0, 2), ("double-pole", -3.0, 3.0, 3),
]
_VERIFY_STIELTJES = [  # (set, sigma, count) on z in (0.05, 2)
    ("double-pole", 0.5, 2), ("exp-collapse", 1.0, 3), ("identity", 2.0, 4),
    ("double-pole", 1.0, 2), ("exp-collapse", 2.0, 3), ("identity", 0.5, 4),
    ("double-pole", 2.0, 3), ("exp-collapse", 0.5, 2),
]
# (set, lift).  rho |z| stays below 0.8: further out on the negative axis the
# gamma-weighted integral of exp-collapse and twin-quarter runs ~60 s per
# point and ends in QuadratureFailure (see perfbench/README.md).
_VERIFY_LAPLACE = [("double-pole", 1.5), ("exp-collapse", 0.5), ("twin-quarter", 2.0)]
_MOMENTS = [("double-pole", 0, 3), ("twin-quarter", 1, 5), ("exp-collapse", 0, 4),
            ("identity", 2, 6), ("double-pole", 1, 7), ("twin-quarter", 0, 2),
            ("exp-collapse", 3, 8)]
# Exponential bounds carry F(-z) from the series: z <= 6 keeps its
# cancellation factor on double-pole below 5e3 (1e4 is the limit run.py
# applies to series points); the probe slots reach z = 26.
_BOUNDS = [(0.0, 3.0, 4), (0.5, 5.0, 5), (0.2, 6.0, 6), (1.0, 6.0, 8)]  # double-pole
_PROBE_BOUNDS = [(0.2, 16.0, 6), (1.0, 26.0, 8)]
_LIFTED_BOUNDS = [("--lift", 0.5, 2), ("--lift", 1.0, 3), ("--lift", 2.0, 4),
                  ("--sigma", 0.5, 2), ("--sigma", 1.0, 3), ("--sigma", 3.0, 4)]
_RATIO_SCANS = [(0.5, 1.0, 0.05, 0.7, 2), (1.0, 0.5, 0.2, 0.8, 5), (2.0, -0.5, 0.1, 0.9, 8)]
_CM_CHECKS = [("double-pole", 0.2, 4.0, 3), ("exp-collapse", 0.1, 6.0, 6),
              ("identity", 0.3, 8.0, 4), ("twin-quarter", 0.4, 7.0, 6),
              ("double-pole", 0.5, 2.5, 5)]


def identity_cli(seed: int) -> dict:
    """45 CLI invocations in fixed slots; the seed draws the grids.

    Slots: 9 verify-representation, 8 verify-stieltjes, 3 verify-laplace,
    7 moments, 4 exponential bounds, 3 --lift and 3 --sigma bounds,
    3 ratio-scan and 5 cm-check, over the catalog sets each command accepts.
    ``kind`` tells the parent which rows carry a value with an oracle.  The
    probe holds two exponential bounds slots that reach z = 26.
    """
    rng = random.Random(f"identity-cli:{seed}")
    inv = []
    probe = []

    def add(argv, kind, zs=None, into=inv, **extra):
        into.append({"argv": argv, "kind": kind, "grid": zs, **extra})

    def inward(lo, hi):
        span = hi - lo
        return lo + 0.02 * span * rng.random(), hi - 0.02 * span * rng.random()

    for name, lo, hi, count in _VERIFY_REPRESENTATION:
        lo, hi = inward(lo, hi)
        add(["verify-representation", "--params", name, "--z=" + _grid_spec(lo, hi, count)],
            "verdict", rows=count)
    for name, sigma, count in _VERIFY_STIELTJES:
        zs = _near_centres(rng, 0.05, 2.0, count)
        add(["verify-stieltjes", "--params", name, "--sigma", str(sigma), "--z", _list_spec(zs)],
            "verdict", rows=count)
    for name, lam in _VERIFY_LAPLACE:
        scale = 1.0 / rho_of(*CATALOG[name])
        zs = [-0.6 * scale + 0.02 * scale * rng.random(), 0.3 * scale + 0.02 * scale * rng.random()]
        add(["verify-laplace", "--params", name, "--lift", str(lam), "--z=" + _list_spec(zs)],
            "verdict", rows=2)
    for name, lo, hi in _MOMENTS:
        lo += rng.randrange(2)
        add(["moments", "--params", name, "--k", f"{lo}..{hi}"], "moments",
            rows=hi - lo + 1, params=name)
    for slots, into in ((_BOUNDS, inv), (_PROBE_BOUNDS, probe)):
        for lo, hi, count in slots:
            lo, hi = inward(lo, hi)
            add(["bounds", "--params", "double-pole", "--z", _grid_spec(lo, hi, count)],
                "series-neg", _spec_points(lo, hi, count), into, rows=count,
                params="double-pole")
    for flag, lam, count in _LIFTED_BOUNDS:
        zs = [float(f"{z:.4f}") for z in _near_centres(rng, 0.02, 0.9, count)]
        add(["bounds", "--params", "double-pole", flag, str(lam), "--z", _list_spec(zs)],
            "lifted-neg", zs, rows=count, params="double-pole", lam=lam)
    for sigma, delta, lo, hi, count in _RATIO_SCANS:
        lo, hi = inward(lo, hi)
        add(["ratio-scan", "--params", "double-pole", "--sigma", str(sigma), "--delta", str(delta),
             "--z", _grid_spec(lo, hi, count)],
            "ratio", _spec_points(lo, hi, count), rows=count + 1, params="double-pole",
            sigma=sigma, delta=delta)
    for name, lo, hi, count in _CM_CHECKS:
        lo, hi = inward(lo, hi)
        add(["cm-check", "--params", name, "--z", _grid_spec(lo, hi, count)], "cm",
            _spec_points(lo, hi, count), rows=1, params=name)
    order = list(range(len(inv)))
    rng.shuffle(order)
    probe_spec = {"workload": "identity-cli", "invocations": probe,
                  "order": list(range(len(probe))), "calls": len(probe)}
    return {"workload": "identity-cli", "invocations": inv, "order": order, "probe": probe_spec}


def _spec_points(lo: float, hi: float, count: int) -> list[float]:
    """The z values the CLI parses out of a start:stop:count spec."""
    lo, hi = float(f"{lo:.4f}"), float(f"{hi:.4f}")
    if count == 1:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


GENERATORS = {
    "series-sweep": series_sweep,
    "density-cold": density_cold,
    "identity-cli": identity_cli,
}
