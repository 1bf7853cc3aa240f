"""Closed forms for the homogeneous nearest-neighbour walk (d = 1, r = 0).

Written from the formulas, not from the program: the excursion MGF
phi(lam) = E[e^{lam T_1}] is the smaller root of
e^lam (q phi^2 + p) = phi, so

    log Phi(lam) = log(2 p e^lam / (1 + s)),   s = sqrt(1 - 4 p q e^{2 lam}),

finite up to lambda_crit = -log(4 p q) / 2. The hitting-time rate
J(t) = sup_lam (lam t - log Phi(lam)) and the speed rate is Cramer's rate
for +-1 steps.
"""

from __future__ import annotations

import math


def lambda_crit(p: float) -> float:
    return -0.5 * math.log(4.0 * p * (1.0 - p))


def log_phi(p: float, lam: float) -> float:
    q = 1.0 - p
    s = math.sqrt(max(1.0 - 4.0 * p * q * math.exp(2.0 * lam), 0.0))
    return math.log(2.0 * p) + lam - math.log1p(s)


def log_phi_prime(p: float, lam: float) -> float:
    q = 1.0 - p
    a = 4.0 * p * q * math.exp(2.0 * lam)
    s = math.sqrt(1.0 - a)
    return 1.0 + a / (s * (1.0 + s))


def hitting_rate(p: float, t: float) -> float:
    """J(t) for t >= 1 (t < 1 is impossible: infinite rate)."""
    if t < 1.0:
        return math.inf
    if t == 1.0:
        return -math.log(p)
    # log Phi' rises from 1 (lam -> -inf) to +inf (lam -> lambda_crit)
    lo, hi = -60.0, lambda_crit(p)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if log_phi_prime(p, mid) < t:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    return lam * t - log_phi(p, lam)


def speed_rate(p: float, x: float) -> float:
    """Cramer's rate of the mean of +-1 steps with P(+1) = p, x in [-1, 1]."""
    q = 1.0 - p

    def term(w: float, prob: float) -> float:
        return 0.0 if w == 0.0 else w * math.log(w / prob)

    return term((1.0 + x) / 2.0, p) + term((1.0 - x) / 2.0, q)
