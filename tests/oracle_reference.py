"""High-precision reference oracles for the test suite.

Every function here is written straight from the defining sum or closed
form in mpmath at 50 significant digits, independently of the package's
numpy code paths.  Tests compare the double-precision implementation
against these references (or against values frozen from them).
"""

from mpmath import mp, mpf, sqrt, log

mp.dps = 50

LN2 = log(2)


def _exact(v):
    # the double itself, not its shortest decimal repr: at x = 1 - 1e-6 the
    # two differ by 3e-17, which is 3e-11 of 1 - x
    return mpf(float(v))


def _pairs(P, Q):
    return [(_exact(p), _exact(q)) for p, q in zip(P, Q)]


def delta(P, Q):
    return sum((p - q) ** 2 / (p + q) for p, q in _pairs(P, Q))


def hellinger(P, Q):
    return sum((sqrt(p) - sqrt(q)) ** 2 for p, q in _pairs(P, Q)) / 2


def jensen_shannon(P, Q):
    return (
        sum(
            p * log(2 * p / (p + q)) + q * log(2 * q / (p + q))
            for p, q in _pairs(P, Q)
        )
        / 2
    )


def ddiv(P, Q):
    return 1 - sum(
        ((sqrt(p) + sqrt(q)) / 2) * sqrt((p + q) / 2) for p, q in _pairs(P, Q)
    )


def jdiv(P, Q):
    return sum((p - q) * log(p / q) for p, q in _pairs(P, Q))


def tdiv(P, Q):
    return sum(
        ((p + q) / 2) * log((p + q) / (2 * sqrt(p * q))) for p, q in _pairs(P, Q)
    )


def psi(P, Q):
    return sum((p - q) ** 2 * (p + q) / (p * q) for p, q in _pairs(P, Q))


def zeta(s, P, Q):
    s = _exact(s)
    if s in (0, 1):
        return jdiv(P, Q)
    tot = sum(
        p**s * q ** (1 - s) + p ** (1 - s) * q**s for p, q in _pairs(P, Q)
    )
    return (tot - 2) / (s * (s - 1))


def xi(s, P, Q):
    s = _exact(s)
    if s == 0:
        return jensen_shannon(P, Q)
    if s == 1:
        return tdiv(P, Q)
    tot = sum(
        ((p ** (1 - s) + q ** (1 - s)) / 2) * ((p + q) / 2) ** s
        for p, q in _pairs(P, Q)
    )
    return (tot - 1) / (s * (s - 1))


def xi_f_inf(s):
    """lim_{u -> inf} f(u)/u of the xi generator, for s < 1 off the limit points."""
    s = _exact(s)
    return (2 ** (-s) - 1) / (2 * s * (s - 1))


BASE = {
    "Delta": delta,
    "I": jensen_shannon,
    "h": hellinger,
    "d": ddiv,
    "J": jdiv,
    "T": tdiv,
    "Psi": psi,
}


# Star transforms as printed closed forms (errata-corrected where the
# star laws f*(1/2) = 0, f*(x) = f*(1-x), f*(0+) = f_inf force it).
def star_closed(tag: str, x):
    x = _exact(x)
    y = 1 - x
    if tag == "Delta":
        return (2 * x - 1) ** 2
    if tag == "h":
        return (1 - 2 * sqrt(x * y)) / 2
    if tag == "I":
        return (LN2 + x * log(x) + y * log(y)) / 2
    if tag == "T":
        return log(1 / (2 * sqrt(x * y))) / 2
    if tag == "J":
        return (2 * x - 1) * log(x / y)
    if tag == "Psi":
        return (2 * x - 1) ** 2 / (x * y)
    if tag == "d":
        return mpf(1) / 2 - (sqrt(2) / 4) * (sqrt(x) + sqrt(y))
    if tag == "D_dDelta":
        return mpf(7) / 4 - sqrt(2) * (sqrt(x) + sqrt(y)) + x * y
    if tag == "D_dI":
        return 2 - sqrt(2) * (sqrt(x) + sqrt(y)) - (LN2 + x * log(x) + y * log(y)) / 2
    if tag == "D_dh":
        return mpf(3) / 2 - sqrt(2) * (sqrt(x) + sqrt(y)) + sqrt(x * y)
    if tag == "D_hDelta":
        return mpf(1) / 4 + x * y - sqrt(x * y)
    if tag == "D_hI":
        return (1 - 2 * sqrt(x * y) - (LN2 + x * log(x) + y * log(y))) / 2
    if tag == "D_IDelta":
        return (LN2 + x * log(x) + y * log(y)) / 2 - (2 * x - 1) ** 2 / 4
    raise KeyError(tag)


def star_family(tag: str, s: float, x):
    s = _exact(s)
    x = _exact(x)
    y = 1 - x
    if tag == "zeta":
        if s in (0, 1):
            return (2 * x - 1) * log(x / y)
        return (y ** (1 - s) * x**s + x ** (1 - s) * y**s - 1) / (s * (s - 1))
    if tag == "xi":
        if s == 0:
            return (LN2 + x * log(x) + y * log(y)) / 2
        if s == 1:
            return log(1 / (2 * sqrt(x * y))) / 2
        return (2 ** (-s) * (y ** (1 - s) + x ** (1 - s)) - 1) / (2 * s * (s - 1))
    raise KeyError(tag)


def averaged_family(tag: str, s: float, priors, cond1, cond2):
    """sum_x P(x) f*(P(C2|x)) of a family member over the outcomes with P(x) > 0."""
    p1, p2 = (_exact(v) for v in priors)
    total = mpf(0)
    for c1, c2 in _pairs(cond1, cond2):
        px = p1 * c1 + p2 * c2
        if px > 0:
            total += px * star_family(tag, s, p2 * c2 / px)
    return total


def as_float(v) -> float:
    return float(v)
