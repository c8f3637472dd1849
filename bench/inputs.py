"""Seeded inputs of every workload.

Everything the program receives is made here from the benchmark seed:
branch points, curve points, tolerance flags and verify seeds.  The same
seed gives the same inputs.  Only numpy is needed, so both the controller
and the worker import this module.

Each sampler keeps to the region where the program works today; the
limits, and the faults that set them, are listed in the README.
"""

from __future__ import annotations

import numpy as np

#: Refined tolerances of the "fine" share of curve_sweep.
REFINED_QUAD_TOL = 1e-13
REFINED_THETA_TOL = 1e-15

#: Minimum distance of an abel_paths point from every branch point.
POINT_CLEARANCE = 0.25

#: Minimum distance from every branch point of the straight pieces of the
#: routes abel_map may take between two abel_paths points (see far_point).
ROUTE_CLEARANCE = 0.02

#: verify --suite full seeds that fail today through the omega stencil
#: (defect 1.0e-5 .. 1.9e-5 against OMEGA_STENCIL_TOL = 1e-5).  They are in
#: every verify_battery round, whatever the benchmark seed.
STENCIL_FAILING_SEEDS = (8, 33, 41, 44)

#: Verify seeds sampled from; every one but the four above passes today.
VERIFY_SEED_RANGE = 64

#: verify --suite quick fails on 8, 44 and 66 in the same way; cli_cold
#: keeps to passing seeds and reports no failures.
QUICK_FAILING_SEEDS = (8, 44, 66)


def segment_distance(z0: complex, z1: complex, p: complex) -> float:
    d = z1 - z0
    t = min(1.0, max(0.0, ((p - z0) * d.conjugate()).real / abs(d) ** 2))
    return abs(p - z0 - t * d)


def chain_clearance(pts: list) -> float:
    """Least distance from a branch point to a chain segment not ending at it.

    The chains join consecutive branch points in the canonical (real,
    imaginary) order, as compute_periods builds its homology basis.
    """
    e = sorted((complex(z) for z in pts), key=lambda z: (z.real, z.imag))
    return min(segment_distance(e[k], e[k + 1], p)
               for k in range(len(e) - 1) for j, p in enumerate(e) if j not in (k, k + 1))


def annulus_points(rng: np.random.Generator, n: int, real: bool = False) -> list:
    """n points with 0.3 <= |e| <= 2 and pairwise separation >= 0.2.

    The region is the one cli.random_curve samples; the points also keep a
    chain clearance of 0.02 (see clustered).
    """
    while True:
        pts: list = []
        for _ in range(200 * n):
            if real:
                z = complex(rng.uniform(-2.0, 2.0), 0.0)
            else:
                z = complex(rng.uniform(0.3, 2.0) * np.exp(2j * np.pi * rng.uniform()))
            if 0.3 <= abs(z) <= 2.0 and all(abs(z - w) >= 0.2 for w in pts):
                pts.append(z)
                if len(pts) == n:
                    if chain_clearance(pts) >= 0.02:
                        return pts
                    break


def zero_trace(pts: list) -> list:
    c = sum(pts) / len(pts)
    return [z - c for z in pts]


def clustered(rng: np.random.Generator, n: int) -> tuple:
    """Annulus points with one pair pulled to a separation in [1e-3, 1e-1].

    The pair keeps a chain clearance of half its separation: when a chain
    segment passes within about 1e-4 of a branch point, compute_periods
    raises QuadratureNonConvergence although the point is far outside its
    1e-6 degeneracy gate.
    """
    pts = annulus_points(rng, n)
    sep = float(10.0 ** rng.uniform(-3.0, -1.0))
    k = int(rng.integers(1, n))
    while True:
        pts[k] = pts[0] + sep * np.exp(2j * np.pi * rng.uniform())
        if chain_clearance(pts) >= 0.5 * sep:
            return pts, sep


def affine_image(rng: np.random.Generator, pts: list) -> tuple:
    """x -> s x + c with s log-uniform in [0.1, 10] and real c, |c| <= min(5, 5 s).

    The shift is capped at 5 s: with s near 0.1 and |c| near 5 the image is
    a small curve far off-centre, and compute_periods raises
    HomologyConstructionFailure through its absolute Legendre gate.
    """
    s = float(10.0 ** rng.uniform(-1.0, 1.0))
    c = float(rng.uniform(-1.0, 1.0) * min(5.0, 5.0 * s))
    return [s * z + c for z in pts], s, c


def sweep_curves(seed: int) -> list:
    """One curve_sweep round: 240 curves in fixed proportions.

    Each item is a dict with the branch points, the tolerances, a kind tag
    and, for affine images, the index of the base curve with s and c.
    """
    rng = np.random.default_rng((seed, 0x5EE9))
    items: list = []

    def add(kind, pts, fine=False, **extra):
        items.append({
            "kind": kind,
            "points": [complex(z) for z in pts],
            "quad_tol": REFINED_QUAD_TOL if fine else None,
            "theta_tol": REFINED_THETA_TOL if fine else None,
            **extra,
        })

    for k in range(60):
        add("complex", annulus_points(rng, 5), fine=k % 4 == 0)
    for _ in range(25):
        add("real", annulus_points(rng, 5, real=True))
    for _ in range(25):
        add("zero_trace", zero_trace(annulus_points(rng, 5)))
    for _ in range(25):
        pts, sep = clustered(rng, 5)
        add("cluster", pts, separation=sep)
    for k in range(30):
        add("genus1", annulus_points(rng, 3, real=k % 3 == 0), fine=k % 4 == 1)
    # affine images of curves already in the round, at the base's tolerances
    bases = [i for i, it in enumerate(items) if it["kind"] in ("complex", "real", "genus1")]
    for i in rng.choice(bases, size=75, replace=False):
        base = items[int(i)]
        pts, s, c = affine_image(rng, base["points"])
        add("affine", pts, fine=base["quad_tol"] is not None, base=int(i), s=s, c=c)
    return items


def far_point(pts: list) -> complex:
    """The point through which abel_map's second and third routes go.

    abel_map first integrates along the direct segment between two points;
    if that ends on the wrong sheet it goes via this point (at angle pi/7
    on a circle of radius 1.6 max|e - c| + 1 around the centroid c of the
    branch points), and then adds a loop on that circle, far from every
    branch point.  A straight piece passing just outside the path clearance
    of a branch point (1.07e-3 from it) makes abel_map raise
    QuadratureNonConvergence, so abel_paths keeps the direct segments and
    the segments to this point ROUTE_CLEARANCE from every branch point.
    """
    c = sum(pts) / len(pts)
    return c + (1.6 * max(abs(e - c) for e in pts) + 1.0) * np.exp(1j * np.pi / 7)


def abel_inputs(seed: int) -> tuple:
    """Curves and point triples of one abel_paths round.

    Returns (curves, triples): curves are branch-point lists (60 of genus 2,
    36 of genus 1); triples are (curve index, P, Q, R) with each point an
    (x, sheet) pair at least POINT_CLEARANCE from every branch point, and
    each pair of points joined by routes that keep ROUTE_CLEARANCE.
    """
    rng = np.random.default_rng((seed, 0xAB31))
    curves = [annulus_points(rng, 5) for _ in range(60)]
    curves += [annulus_points(rng, 3) for _ in range(36)]
    triples = []
    for ci, pts in enumerate(curves):
        far = far_point(pts)
        for _ in range(6):
            triple = []
            while len(triple) < 3:
                x = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
                if min(abs(x - e) for e in pts) < POINT_CLEARANCE:
                    continue
                legs = [(x, far)] + [(x, y) for y, _ in triple]
                if any(segment_distance(a, b, e) < ROUTE_CLEARANCE for a, b in legs for e in pts):
                    continue
                triple.append((x, 1 if rng.uniform() < 0.5 else -1))
            triples.append((ci, *triple))
    return curves, triples


def verify_seeds(seed: int) -> list:
    """One verify_battery round: the four failing seeds and 28 passing ones.

    The passing seeds are drawn from range(VERIFY_SEED_RANGE) by the
    benchmark seed; the order of the 32 is shuffled by it too.
    """
    rng = np.random.default_rng((seed, 0x7E51))
    passing = [k for k in range(VERIFY_SEED_RANGE) if k not in STENCIL_FAILING_SEEDS]
    chosen = [int(k) for k in rng.choice(passing, size=28, replace=False)]
    out = chosen + list(STENCIL_FAILING_SEEDS)
    rng.shuffle(out)
    return out


def cli_commands(seed: int) -> list:
    """One cli_cold round: ten CLI invocations as argument lists.

    A genus-2 curve goes through periods, theta, match, kappa and expand; a
    genus-1 curve through periods, theta, kappa and expand; one verify
    --suite quick runs at a seed drawn from the passing quick seeds.
    """
    rng = np.random.default_rng((seed, 0xC01D))
    g2 = _curve_json(annulus_points(rng, 5))
    g1 = _curve_json(annulus_points(rng, 3))
    passing = [k for k in range(VERIFY_SEED_RANGE) if k not in QUICK_FAILING_SEEDS]
    vseed = int(rng.choice(passing))
    cmds = [[c, "--curve", g2] for c in ("periods", "theta", "match", "kappa", "expand")]
    cmds += [[c, "--curve", g1] for c in ("periods", "theta", "kappa", "expand")]
    cmds.append(["verify", "--suite", "quick", "--seed", str(vseed)])
    return cmds


def _curve_json(pts: list) -> str:
    pairs = ",".join(f"[{z.real!r},{z.imag!r}]" for z in pts)
    return '{"branch_points":[' + pairs + "]}"
