"""Reference values computed apart from divbound.

Everything here is written from the definitions in the project README
(measures as sums over the alphabet, the two families, the differences,
the exact Bayes error and the closed-form bounds), with numpy for the
pointwise terms and ``math.fsum`` for every sum.  Nothing here imports
divbound, so a fault in the program cannot hide in its own reference.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)

# Orders within this distance of 0 or 1 use the closed-form limit rows
# (README, "Numerical conventions").
SWITCH_EPS = 1e-6


def fsum(terms: np.ndarray) -> float:
    return math.fsum(np.asarray(terms, dtype=float).tolist())


def _regime(s: float) -> str:
    if abs(s) < SWITCH_EPS:
        return "zero"
    if abs(s - 1.0) < SWITCH_EPS:
        return "one"
    return "regular"


# ---------------------------------------------------------------------------
# measures between strictly positive P and Q
# ---------------------------------------------------------------------------


class PairMeasures:
    """Every catalog measure of one strictly positive pair, from its definition."""

    def __init__(self, p: np.ndarray, q: np.ndarray):
        self.p, self.q = p, q
        m = p + q
        sp, sq = np.sqrt(p), np.sqrt(q)
        lp, lq, lm = np.log(p), np.log(q), np.log(0.5 * m)
        self.base = {
            "Delta": fsum((p - q) ** 2 / m),
            "I": 0.5 * fsum(p * (lp - lm) + q * (lq - lm)),
            "h": 0.5 * fsum((sp - sq) ** 2),
            "d": math.fsum([1.0] + (-0.5 * (sp + sq) * np.sqrt(0.5 * m)).tolist()),
            "J": fsum((p - q) * (lp - lq)),
            "T": fsum(0.5 * m * (lm - 0.5 * (lp + lq))),
            "Psi": fsum((p - q) ** 2 * m / (p * q)),
        }
        b = self.base
        self.diff = {
            "D_dDelta": 4.0 * b["d"] - 0.25 * b["Delta"],
            "D_dh": 4.0 * b["d"] - b["h"],
            "D_dI": 4.0 * b["d"] - b["I"],
            "D_hI": b["h"] - b["I"],
            "D_hDelta": b["h"] - 0.25 * b["Delta"],
            "D_IDelta": b["I"] - 0.25 * b["Delta"],
        }

    def zeta(self, s: float) -> float:
        regime = _regime(s)
        if regime != "regular":
            return self.base["J"]
        p, q = self.p, self.q
        terms = p**s * q ** (1.0 - s) + p ** (1.0 - s) * q**s
        return math.fsum([-2.0] + terms.tolist()) / (s * (s - 1.0))

    def xi(self, s: float) -> float:
        regime = _regime(s)
        if regime == "zero":
            return self.base["I"]
        if regime == "one":
            return self.base["T"]
        p, q = self.p, self.q
        terms = 0.5 * (p ** (1.0 - s) + q ** (1.0 - s)) * (0.5 * (p + q)) ** s
        return math.fsum([-1.0] + terms.tolist()) / (s * (s - 1.0))

    def value(self, label: str) -> float:
        """Value of a catalog label: a base tag, a difference tag, 'zeta:S' or 'xi:S'."""
        if label in self.base:
            return self.base[label]
        if label in self.diff:
            return self.diff[label]
        family, _, order = label.partition(":")
        if family == "zeta":
            return self.zeta(float(order))
        if family == "xi":
            return self.xi(float(order))
        raise KeyError(f"no reference for measure {label!r}")

    def chain(self, which: str) -> list:
        """The two inequality chains of the README, left to right."""
        b, d = self.base, self.diff
        if which == "eq7":
            return [0.25 * b["Delta"], b["I"], b["h"], 4.0 * b["d"],
                    0.125 * b["J"], b["T"], b["Psi"] / 16.0]
        return [d["D_IDelta"], 2.0 / 3.0 * d["D_hDelta"], 8.0 / 15.0 * d["D_dDelta"],
                8.0 / 3.0 * d["D_dh"], 8.0 / 7.0 * d["D_dI"], 2.0 * d["D_hI"]]


# ---------------------------------------------------------------------------
# two-class problems
# ---------------------------------------------------------------------------


class ProblemReference:
    """Exact error and posterior-averaged family forms of one two-class problem."""

    def __init__(self, priors, cond1, cond2):
        self.p1, self.p2 = float(priors[0]), float(priors[1])
        self.c1 = np.asarray(cond1, dtype=float)
        self.c2 = np.asarray(cond2, dtype=float)
        w1, w2 = self.p1 * self.c1, self.p2 * self.c2
        px = w1 + w2
        live = px > 0.0
        self.px = px[live]
        self.post = (w2 / np.where(live, px, 1.0))[live]
        self.bayes_error = fsum(np.minimum(w1, w2))

    @property
    def equal_priors(self) -> bool:
        return abs(self.p1 - self.p2) <= 1e-12

    def j_divergence(self) -> float:
        return fsum((self.c1 - self.c2) * np.log(self.c1 / self.c2))

    def kailath(self) -> float:
        """Exponential lower bound 1/4 exp(-J/2) for equal priors."""
        return 0.25 * math.exp(-0.5 * self.j_divergence())

    def averaged(self, family: str, s: float) -> float:
        """E_x[f*(P(C2|x))] for the family generator at order s (may be inf)."""
        terms = self.px * point(family, s, self.post)
        if np.any(np.isinf(terms)):
            return math.inf
        return fsum(terms)


def point(family: str, s: float, a):
    """Star transform of the family generator at posterior a.

    zeta: f(u) = (u^s + u^(1-s) - (u+1)) / (s(s-1)), limit (u-1) ln u;
    xi:   f(u) = ((u^(1-s)+1)/2 ((u+1)/2)^s - (u+1)/2) / (s(s-1)),
          limits Jensen-Shannon (s = 0) and arithmetic-geometric (s = 1).
    f*(a) = a f((1-a)/a), written out with b = 1 - a.
    """
    a = np.asarray(a, dtype=float)
    b = 1.0 - a
    regime = _regime(s)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if family == "zeta":
            if regime != "regular":
                out = (2.0 * a - 1.0) * np.log(a / b)
            else:
                out = (a**s * b ** (1.0 - s) + b**s * a ** (1.0 - s) - 1.0) / (s * (s - 1.0))
        elif regime == "zero":
            out = 0.5 * (LN2 + a * np.log(a) + b * np.log(b))
        elif regime == "one":
            out = -0.5 * np.log(2.0 * np.sqrt(a * b))
        else:
            out = (0.5 * (a ** (1.0 - s) + b ** (1.0 - s)) * 2.0 ** (-s) - 0.5) / (s * (s - 1.0))
    return out


def f_infinity(family: str, s: float) -> float:
    """lim f(u)/u of the family generator: finite only where an upper bound exists."""
    regime = _regime(s)
    if family == "zeta":
        return -1.0 / (s * (s - 1.0)) if regime == "regular" and 0.0 < s < 1.0 else math.inf
    if regime == "zero":
        return 0.5 * LN2
    if regime == "one" or s >= 1.0:
        return math.inf
    return (2.0 ** (-s) - 1.0) / (2.0 * s * (s - 1.0))


def upper_bound(family: str, s: float, averaged: float) -> float:
    """P_e <= (1/2)[1 - averaged / f_inf], capped at the trivial 1/2."""
    return min(0.5 * (1.0 - averaged / f_infinity(family, s)), 0.5)


def s_grid(spec: str) -> list:
    """The README's grid syntax: 'a:b:n' evenly spaced or a comma list; snap to 0 and 1."""
    if ":" in spec:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
        step = (b - a) / (n - 1)
        values = [a + i * step for i in range(n)]
    else:
        values = [float(tok) for tok in spec.split(",")]
    return [0.0 if _regime(v) == "zero" else 1.0 if _regime(v) == "one" else v for v in values]
