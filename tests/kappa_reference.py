"""kappa by each theta-constant route, one function per route.

These are the per-route formulas that ``identities.kappa_report`` fills
into one stack.  Each keeps the report's arithmetic operation for
operation, so the report must equal them byte for byte; the tests hold the
two side by side.
"""

from __future__ import annotations

import numpy as np

from secondkind.correspondence import BRANCH_ROWS
from secondkind.identities import _branch_pairs, _even_ratio_sum, _odd_ratio_sums, _odd_ratios


def kappa_even_pairs(bundle, tt, m) -> np.ndarray:
    """kappa from the even characteristic of each branch pair, shape (10, 2, 2).

    Uses the plain z-Hessians of theta conjugated by (2 omega)^{-1}, so the
    routes are independent of the directional table.
    """
    ei, ej, sym11 = _branch_pairs(bundle)
    sym = np.array([[sym11, -ei * ej], [-ei * ej, ei + ej]]).transpose(2, 0, 1)
    codes = m.even_quads[BRANCH_ROWS, 3]
    hess = tt.hessians[codes] / tt.values[codes, None, None]
    w = bundle.inv_two_omega
    return -0.5 * sym - 0.5 * (w.T @ hess @ w)


def kappa_even_sum(curve, bundle, tt) -> np.ndarray:
    """kappa from the sum over all 10 even characteristics."""
    lam2, lam3, lam4 = (curve.lam_at(k) for k in (2, 3, 4))
    lead = np.array([[4 * lam2, lam3], [lam3, 4 * lam4]]) / 80.0
    return lead - _even_ratio_sum(tt) / 20.0


def kappa_odd_singles(curve, bundle, tt, m) -> np.ndarray:
    """kappa from the admissible odd characteristic of each branch point, shape (5, 2, 2)."""
    ei = np.asarray(bundle.canonical_points)
    lam3, lam4 = curve.lam_at(3), curve.lam_at(4)
    r = _odd_ratios(tt, m)
    r112, r122, r222 = r[:, 0, 0, 1], r[:, 0, 1, 1], r[:, 1, 1, 1]
    k22 = lam4 / 24.0 - ei / 6.0 - r222 / 6.0
    k12 = -lam4 * ei / 24.0 - ei ** 2 / 3.0 - ei * r222 / 12.0 - r122 / 4.0
    k11 = (
        -(lam3 / 8.0) * ei
        - (5.0 / 24.0) * lam4 * ei ** 2
        - (7.0 / 6.0) * ei ** 3
        - 0.5 * r112
        - 0.5 * ei * r122
        - (ei ** 2 / 6.0) * r222
    )
    return np.array([[k11, k12], [k12, k22]]).transpose(2, 0, 1)


def kappa_odd_sum(curve, bundle, tt, m) -> np.ndarray:
    """kappa from sums of third-derivative ratios over the 5 admissible odds."""
    lam2, lam3, lam4 = (curve.lam_at(k) for k in (2, 3, 4))
    s112, s122, s222 = _odd_ratio_sums(_odd_ratios(tt, m))
    k22 = lam4 / 20.0 - s222 / 30.0
    k12 = lam3 / 40.0 - lam4 ** 2 / 800.0 - s122 / 20.0 + lam4 * s222 / 1200.0
    k11 = (
        (3.0 / 40.0) * lam2
        - lam4 * lam3 / 400.0
        + lam4 ** 3 / 8000.0
        - s112 / 10.0
        + lam4 * s122 / 200.0
        - lam4 ** 2 * s222 / 12000.0
    )
    return np.array([[k11, k12], [k12, k22]])


def kappa_routes(curve, bundle, tt, m) -> np.ndarray:
    """The (18, 2, 2) stack of ``kappa_report``: the direct kappa, the 10
    even pairs, the even sum, the 5 odd singles and the odd sum."""
    return np.concatenate([[bundle.kappa], kappa_even_pairs(bundle, tt, m),
                           [kappa_even_sum(curve, bundle, tt)],
                           kappa_odd_singles(curve, bundle, tt, m),
                           [kappa_odd_sum(curve, bundle, tt, m)]])
