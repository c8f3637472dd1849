"""Periods, theta constants and identity verification for hyperelliptic curves.

Genus 1 and 2 curves in the odd-degree model y^2 = 4 x^(2g+1) + ... are
integrated to full period matrices of both kinds; theta-constant tables,
the branch-point correspondence, the kappa identities and the local
expansions at infinity are built on top.
"""

from .correspondence import BranchMatching, bolza_match
from .curves import (
    CurvePoint,
    HyperellipticCurve,
    branch_points,
    curve_from_branch_points,
    curve_from_coefficients,
)
from .expansion import expansion_match
from .identities import (
    IdentityDefects,
    IdentityEntry,
    KappaReport,
    jacobi_inversion_check,
    kappa_report,
    omega_a_period,
    omega_algebraic,
    omega_consistency,
    rosenhain_defects,
    rosenhain_gamma_pairs,
    thomae_defects,
    thomae_genus1_defect,
    weierstrass_eta,
)
from .periods import (
    PeriodBundle,
    abel_from_infinity,
    abel_map,
    compute_periods,
    lattice_distance,
    legendre_defect,
)
from .series import TruncatedSeries
from .theta import Characteristic, ThetaTable, char, theta_eval, theta_table

__version__ = "0.1.0"

__all__ = [
    "BranchMatching",
    "Characteristic",
    "CurvePoint",
    "HyperellipticCurve",
    "IdentityDefects",
    "IdentityEntry",
    "KappaReport",
    "PeriodBundle",
    "ThetaTable",
    "TruncatedSeries",
    "abel_from_infinity",
    "abel_map",
    "bolza_match",
    "branch_points",
    "char",
    "compute_periods",
    "curve_from_branch_points",
    "curve_from_coefficients",
    "expansion_match",
    "jacobi_inversion_check",
    "kappa_report",
    "lattice_distance",
    "legendre_defect",
    "omega_a_period",
    "omega_algebraic",
    "omega_consistency",
    "rosenhain_defects",
    "rosenhain_gamma_pairs",
    "theta_eval",
    "theta_table",
    "thomae_defects",
    "thomae_genus1_defect",
    "weierstrass_eta",
]
