"""One table of outcomes for the pair-level entry points on hostile inputs.

Each cell names what measure_value and csiszar_sum give for one catalog
key, or chain_check for one chain, on one input: fin (a finite value, and
for a chain every link finite), inf (+inf, or some link +inf), or the
DivboundError subclass raised.  Every chain holds, no RuntimeWarning may
escape, and a pair built on writable arrays gives the bits of the
validated pair, though it shares no sums.
"""

import math

import numpy as np
import pytest

from divbound.distributions import PERMISSIVE, STRICT, DiscreteDistribution, validate
from divbound.generators import CATALOG_KEYS, csiszar_sum, generator
from divbound.kernel import DivboundError
from divbound.measures import chain_check, measure_value

INPUTS = {
    # masses below the normal range, with an ordinary ratio
    "subnormal": ([1e-310, 1.0], [2e-310, 1.0], STRICT),
    # p/q finite, f(p/q) past the double range
    "f_over": ([0.5, 0.5], [1.0 - 1e-300, 1e-300], STRICT),
    # p/q past the double range in one cell, q/p in another
    "ratio_over": ([0.5, 1e-310, 0.5], [1e-310, 0.5, 0.5], STRICT),
    # a dead cell, and a zero against a live mass each way
    "dead": ([0.5, 0.25, 0.0, 0.25, 0.0], [0.25, 0.5, 0.25, 0.0, 0.0], PERMISSIVE),
    "equal": ([0.2, 0.3, 0.5], [0.2, 0.3, 0.5], STRICT),
    "mismatch": ([0.5, 0.5], [0.2, 0.3, 0.5], STRICT),
}

OUTCOMES = """
key        subnormal  f_over  ratio_over  dead  equal  mismatch
Delta      fin        fin     fin         fin   fin    AlphabetMismatch
I          fin        fin     fin         fin   fin    AlphabetMismatch
h          fin        fin     fin         fin   fin    AlphabetMismatch
d          fin        fin     fin         fin   fin    AlphabetMismatch
J          fin        fin     fin         inf   fin    AlphabetMismatch
T          fin        fin     fin         inf   fin    AlphabetMismatch
Psi        fin        fin     inf         inf   fin    AlphabetMismatch
zeta:-1.0  fin        fin     inf         inf   fin    AlphabetMismatch
zeta:0.5   fin        fin     fin         fin   fin    AlphabetMismatch
zeta:2.0   fin        fin     inf         inf   fin    AlphabetMismatch
xi:-1.0    fin        fin     fin         fin   fin    AlphabetMismatch
xi:0.5     fin        fin     fin         fin   fin    AlphabetMismatch
xi:2.0     fin        fin     inf         inf   fin    AlphabetMismatch
D_dDelta   fin        fin     fin         fin   fin    AlphabetMismatch
D_dh       fin        fin     fin         fin   fin    AlphabetMismatch
D_dI       fin        fin     fin         fin   fin    AlphabetMismatch
D_hI       fin        fin     fin         fin   fin    AlphabetMismatch
D_hDelta   fin        fin     fin         fin   fin    AlphabetMismatch
D_IDelta   fin        fin     fin         fin   fin    AlphabetMismatch
eq7        fin        fin     inf         inf   fin    AlphabetMismatch
eq39       fin        fin     fin         fin   fin    AlphabetMismatch
"""


def _table() -> dict:
    header, *rows = (line.split() for line in OUTCOMES.strip().splitlines())
    return {(row[0], name): cell for row in rows for name, cell in zip(header[1:], row[1:])}


def _kind(values) -> str:
    if any(math.isnan(v) for v in values):
        return "nan"
    return "inf" if math.inf in values else "fin"


def _outcomes(P, Q) -> dict:
    """(row key, entry point) -> (outcome, repr of what was returned)."""
    calls = {}
    for key in CATALOG_KEYS:
        calls[key.label(), "measure_value"] = lambda key=key: [measure_value(key, P, Q)]
        calls[key.label(), "csiszar_sum"] = lambda key=key: [csiszar_sum(generator(key), P, Q)]
    for which in ("eq7", "eq39"):
        calls[which, "chain_check"] = lambda which=which: chain_check(P, Q, which)
    out = {}
    for where, call in calls.items():
        try:
            got = call()
        except DivboundError as exc:
            out[where] = (type(exc).__name__, None)
            continue
        if where[1] == "chain_check":
            assert got.ok, (where, got.violations)
            got = [v for _, v in got.values]
        out[where] = (_kind(got), repr(got))
    return out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_every_entry_point_has_its_tabled_outcome(name):
    p, q, mode = INPUTS[name]
    frozen = _outcomes(validate(p, mode), validate(q, mode))
    writable = _outcomes(*(DiscreteDistribution(np.array(w), mode) for w in (p, q)))
    table = _table()
    assert {where: kind for where, (kind, _) in frozen.items()} == {
        (key, entry): table[key, name] for key, entry in frozen
    }
    assert writable == frozen


def test_the_table_has_every_key_and_input():
    keys = [key.label() for key in CATALOG_KEYS] + ["eq7", "eq39"]
    assert set(_table()) == {(key, name) for key in keys for name in INPUTS}
