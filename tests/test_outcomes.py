"""Tables of outcomes for the entry points on hostile inputs.

The first table covers the pair-level entry points.  Each cell names what
measure_value and csiszar_sum give for one catalog key, or chain_check
for one chain, on one input: fin (a finite value, and for a chain every
link finite), inf (+inf, or some link +inf), or the DivboundError
subclass raised.  Every chain holds, no RuntimeWarning may escape, and a
pair built on writable arrays gives the bits of the validated pair,
though it shares no sums.

The second table covers the bounds entry points on two-class problems
built from the same kinds of hostile conditionals; its cells are read as
BOUND_OUTCOMES says.  On every problem no RuntimeWarning escapes, no
value is nan, every applicable bound lies on its side of P_e within
SANDWICH_TOL, and the bounds and sweep commands print nothing to stderr.

The third table covers the pointwise entry points (star, star_extended,
zeta_point, xi_point) at points from the smallest subnormal to the largest
double below 1: each gives, with no warning and no exception, the value
of the array path.

The fourth table covers `divbound verify` at edge arguments: its exit code
and the start of what it writes to stderr.

The fifth table covers the library's argument errors: each entry point
called with an argument it refuses, and the exception type and message it
raises.

The sixth table covers the generator checks (limit_constants and the two
convexity probes) at family orders where the powers pass the double
range: each returns or raises a DivboundError, with no warning.
"""

import dataclasses
import math

import numpy as np
import pytest

from conftest import set_cpus
from divbound import bounds, cli, verify
from divbound.bounds import (
    NOTES,
    SANDWICH_TOL,
    TwoClassProblem,
    bayes_error,
    bound_report,
    comparison_check,
    family_bounds,
    kailath_bound,
    toussaint_bounds,
    upper_bound_difference,
    xi_point,
    zeta_point,
)
from divbound.distributions import PERMISSIVE, STRICT, DiscreteDistribution, validate
from divbound.generators import (
    CATALOG_KEYS,
    GeneratingFunction,
    csiszar_sum,
    generator,
    limit_constants,
    probe_generator,
    probe_star,
    star,
    star_extended,
)
from divbound.kernel import ArgumentError, DivboundError, DomainError, ProbeFailure
from divbound.measures import (
    MeasureId,
    base_measure,
    chain_check,
    difference_measure,
    measure_value,
)
from divbound.verify import N_MAX_LIMIT

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


# ---------------------------------------------------------------------------
# bounds entry points
# ---------------------------------------------------------------------------

# The orders of every family row: the verify grid, the limit bands (J at
# zeta 0, I at xi 0, T at xi 1), orders where the powers overflow, the
# edge of xi's finite f_inf (s = -1045), and orders whose square overflows.
ORDERS = (-1.0, 0.0, 0.5, 2.0, 1e-7, -1e-7, 1.0 + 1e-7, 1.0 - 1e-7, 60.0, -60.0,
          -1040.0, -1046.0, 2e154, -2e154)

PRIORS = {"even": (0.5, 0.5), "skew": (0.3, 0.7)}

CONDITIONALS = {
    # masses below the normal range, with an ordinary ratio
    "subnormal": ([1e-310, 1.0], [2e-310, 1.0]),
    # a posterior near 2e-300: (1-a)/a is finite, f at it overflows
    "f_over": ([0.5, 0.5], [1.0, 1e-300]),
    # a posterior near 2e-310: (1-a)/a overflows
    "ratio_over": ([0.5, 0.5], [1.0, 1e-310]),
    "one_sided": ([0.5, 0.5], [1.0, 0.0]),
    "dead": ([0.5, 0.5, 0.0], [0.25, 0.75, 0.0]),
    "equal": ([0.3, 0.7], [0.3, 0.7]),
    "disjoint": ([1.0, 0.0], [0.0, 1.0]),
}

# report: how many applicable bound_report entries carry each flag (v
# vacuous, n near-vacuous, j J infinite), or fin if none does.
# zeta, xi: family_bounds at each of ORDERS in turn: . a finite average
# and an unflagged lower bound, n a near-vacuous lower bound, v an
# infinite average (both bounds vacuous).
# compare: ok where every comparison_check relation holds.
# kailath, toussaint: fin for a finite bound (the general Toussaint bound
# beside the inversion one); for Kailath's, none where it does not apply
# and j where it saturates at 0 because J is infinite.
# cli: the exit code of divbound bounds over ORDERS.
# sweep: the exit codes of divbound sweep, zeta then xi, each over
# SWEEP_GRIDS in turn.
BOUND_OUTCOMES = """
problem          report     zeta            xi              compare  kailath  toussaint  cli  sweep
even/subnormal   6v         ..........vvvv  ............vv  ok       fin      fin        0    0000
even/f_over      10v+10n    nn.nnnnnvvvvvv  ...n..nnv..vvv  ok       fin      fin        0    0000
even/ratio_over  13v+7n     vn.vnnnnvvvvvv  ...v..nnv..vvv  ok       fin      fin        0    0000
even/one_sided   20v+1j     vv.vvvvvvvvvvv  ...v..vvv..vvv  ok       j        fin        0    0000
even/dead        6v         ..........vvvv  ............vv  ok       fin      fin        0    0000
even/equal       fin        ..............  ..............  ok       fin      fin        0    0000
even/disjoint    20v+8n+1j  vvnvvvvvvvvvvv  nnnvnnvvvnnvvv  ok       j        fin        0    0000
skew/subnormal   6v         ..........vvvv  ............vv  ok       none     fin        0    0000
skew/f_over      10v+10n    nn.nnnnnvvvvvv  ...n..nnv..vvv  ok       none     fin        0    0000
skew/ratio_over  12v+8n     vn.vnnnnvvvvvv  ...n..nnv..vvv  ok       none     fin        0    0000
skew/one_sided   20v        vv.vvvvvvvvvvv  ...v..vvv..vvv  ok       none     fin        0    0000
skew/dead        6v         ..........vvvv  ............vv  ok       none     fin        0    0000
skew/equal       6v         ..........vvvv  ............vv  ok       none     fin        0    0000
skew/disjoint    20v+8n     vvnvvvvvvvvvvv  nnnvnnvvvnnvvv  ok       none     fin        0    0000
"""

PROBLEMS = {
    f"{pname}/{cname}": (priors, *conds)
    for pname, priors in PRIORS.items()
    for cname, conds in CONDITIONALS.items()
}

VACUOUS = NOTES[bounds._VACUOUS]
_FLAGS = {VACUOUS: "v", NOTES[bounds._NEAR_VACUOUS]: "n", NOTES[bounds._J_INFINITE]: "j"}


def _bound_table() -> dict:
    header, *rows = (line.split() for line in BOUND_OUTCOMES.strip().splitlines())
    return {row[0]: dict(zip(header[1:], row[1:])) for row in rows}


def _lower(value: float, pe: float) -> None:
    assert not value - pe > SANDWICH_TOL, (value, pe)


def _upper(value: float, pe: float) -> None:
    assert not pe - value > SANDWICH_TOL, (value, pe)


def _report_cell(problem, pe) -> str:
    report = bound_report(problem, ORDERS)
    assert report.exact_pe == pe
    for e in report.entries:
        assert not math.isnan(e.value), e
    assert report.sandwich_ok, report.sandwich_violations()
    flags = [_FLAGS[e.note] for e in report.entries if e.applicable and e.note in _FLAGS]
    counts = [f"{flags.count(flag)}{flag}" for flag in "vnj" if flag in flags]
    return "+".join(counts) or "fin"


def _family_cell(problem, pe, family) -> str:
    cell = ""
    for s in ORDERS:
        averaged, (lower, note), upper = family_bounds(problem, family, s)
        assert not math.isnan(averaged) and averaged >= 0.0, (s, averaged)
        _lower(lower, pe)
        if upper is not None:
            _upper(upper[0], pe)
            assert upper[1] == (VACUOUS if averaged == math.inf else ""), (s, upper)
        assert (note == VACUOUS) == (averaged == math.inf), (s, note)
        cell += _FLAGS.get(note, ".")
    return cell


def _compare_cell(problem) -> str:
    for res in comparison_check(problem):
        assert res.satisfied and not math.isnan(res.slack), res
    return "ok"


def _kailath_cell(problem, pe) -> str:
    value, note = kailath_bound(problem)
    if value is None:
        return "none"
    _lower(value, pe)
    return _FLAGS.get(note, "fin")


def _toussaint_cell(problem, pe) -> str:
    general, via_inversion = toussaint_bounds(problem)
    _lower(via_inversion, pe)
    _lower(general, pe)
    return "fin"


# The sweep grids: the verify grid's span through both limit orders, and a
# span through the orders where the powers overflow.
SWEEP_GRIDS = ("-1:2:7", "-1046:60:8")


def _sweep_cell(problem_file, capsys) -> str:
    codes = ""
    for family in ("zeta", "xi"):
        for grid in SWEEP_GRIDS:
            argv = ["sweep", "--problem", str(problem_file), "--family", family, f"--s-grid={grid}"]
            codes += str(cli.main(argv))
            out, err = capsys.readouterr()
            assert err == "" and "nan" not in out, (family, grid, err)
    return codes


def _cli_cell(problem_file, capsys) -> str:
    grid = ",".join(repr(s) for s in ORDERS)
    code = cli.main(["bounds", "--problem", str(problem_file), f"--s-grid={grid}"])
    out, err = capsys.readouterr()
    assert err == "" and "nan" not in out
    return str(code)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_every_bounds_entry_point_has_its_tabled_outcome(name, tmp_path, capsys):
    priors, cond1, cond2 = PROBLEMS[name]
    problem = TwoClassProblem.from_arrays(priors, cond1, cond2)
    pe = bayes_error(problem)
    problem_file = tmp_path / "problem.txt"
    problem_file.write_text(
        "".join(f"{field}: {' '.join(map(repr, values))}\n"
                for field, values in (("priors", priors), ("cond1", cond1), ("cond2", cond2)))
    )
    got = {
        "report": _report_cell(problem, pe),
        "zeta": _family_cell(problem, pe, "zeta"),
        "xi": _family_cell(problem, pe, "xi"),
        "compare": _compare_cell(problem),
        "kailath": _kailath_cell(problem, pe),
        "toussaint": _toussaint_cell(problem, pe),
        "cli": _cli_cell(problem_file, capsys),
        "sweep": _sweep_cell(problem_file, capsys),
    }
    assert got == _bound_table()[name]


def test_the_bounds_table_has_every_problem():
    assert set(_bound_table()) == set(PROBLEMS)


# ---------------------------------------------------------------------------
# pointwise entry points
# ---------------------------------------------------------------------------

# The smallest subnormal; a point where (1-x)/x overflows; points where the
# float form of f* overflows in numpy scalars (J from 3.9e-306 down); a
# normal tiny point; the middle; the largest double below 1.
POINTS = (5e-324, 2e-310, 1e-307, 1e-306, 4e-306, 1e-300, 0.5, 1.0 - 2.0**-53)

# One row per catalog key and per family member at each of ORDERS, one
# character per point of POINTS: . a finite value, i +inf.
POINT_OUTCOMES = """
Delta            ........
I                ........
h                ........
d                ........
J                ........
T                ........
Psi              ii......
zeta:-1.0        ii......
zeta:0.5         ........
zeta:2.0         ii......
xi:-1.0          ........
xi:0.5           ........
xi:2.0           ii......
D_dDelta         ........
D_dh             ........
D_dI             ........
D_hI             ........
D_hDelta         ........
D_IDelta         ........
zeta:0.0         ........
zeta:1e-07       ........
zeta:-1e-07      ........
zeta:1.0000001   ........
zeta:0.9999999   ........
zeta:60.0        iiiiii.i
zeta:-60.0       iiiiii.i
zeta:-1040.0     iiiiii.i
zeta:-1046.0     iiiiii.i
zeta:2e+154      iiiiii.i
zeta:-2e+154     iiiiii.i
xi:0.0           ........
xi:1e-07         ........
xi:-1e-07        ........
xi:1.0000001     ........
xi:0.9999999     ........
xi:60.0          iiiiii.i
xi:-60.0         ........
xi:-1040.0       ........
xi:-1046.0       iiiiii.i
xi:2e+154        iiiiii.i
xi:-2e+154       iiiiii.i
"""

POINT_KEYS = list(
    dict.fromkeys(
        [key.label() for key in CATALOG_KEYS]
        + [f"{family}:{s!r}" for family in ("zeta", "xi") for s in ORDERS]
    )
)
_POINTWISE = {"zeta": zeta_point, "xi": xi_point}


def _point_table() -> dict:
    return dict(line.split() for line in POINT_OUTCOMES.strip().splitlines())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key", POINT_KEYS)
def test_every_pointwise_entry_point_has_its_tabled_outcome(key):
    g = generator(key)
    family, _, s = key.partition(":")
    cells = ""
    for x in POINTS:
        value = float(star(g, np.array([x]))[0])
        assert not math.isnan(value) and value != -math.inf, (x, value)
        got = [star(g, x), star_extended(g, x)]
        if s:
            got.append(_POINTWISE[family](float(s), x))
        assert [repr(v) for v in got] == [repr(value)] * len(got), x
        cells += "i" if value == math.inf else "."
    assert cells == _point_table()[key]


def test_the_point_table_has_every_key():
    assert list(_point_table()) == POINT_KEYS


# ---------------------------------------------------------------------------
# verify entry point
# ---------------------------------------------------------------------------

# (--trials, --n-max, --seed): (exit code, start of stderr).  An n-max past
# 64 draws from an empty corpus instead (_no_large_draws), so the row at the
# limit shows the value accepted and reaching the draws without allocating
# for alphabets of 2^20, and a missing check would show as exit 0 here.
VERIFY_OUTCOMES = {
    (1, 64, 42): (0, ""),
    (10, 2, 42): (0, ""),
    (10, 64, 2**63): (0, ""),
    (1, N_MAX_LIMIT, 42): (0, ""),
    (1, N_MAX_LIMIT + 1, 42): (2, "usage error: n-max must be in [2, 1048576]"),
    (0, 64, 42): (2, "usage error: trials must be >= 1"),
    (1, 1, 42): (2, "usage error: n-max must be in [2, 1048576]"),
    (1, 64, -1): (2, "usage error: seed must be >= 0"),
}


def _no_large_draws(blocks, drawn):
    """verify._blocks, drawing nothing at an n_max past 64 and recording it."""

    def patched(trials, rng, n_max, priors=False):
        if n_max <= 64:
            return blocks(trials, rng, n_max, priors)
        drawn.append(n_max)
        return iter(())

    return patched


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", sorted(VERIFY_OUTCOMES))
def test_every_verify_argument_has_its_tabled_outcome(args, monkeypatch, capsys):
    set_cpus(monkeypatch, 1)  # in this process, where the draws are patched
    drawn = []
    monkeypatch.setattr(verify, "_blocks", _no_large_draws(verify._blocks, drawn))
    trials, n_max, seed = args
    argv = ["verify", "--trials", str(trials), "--n-max", str(n_max), "--seed", str(seed)]
    code = cli.main(argv)
    _, err = capsys.readouterr()
    want_code, want_err = VERIFY_OUTCOMES[args]
    assert (code, err[: len(want_err)]) == (want_code, want_err)
    assert bool(err) == bool(want_err)
    # the two chain suites and the Csiszar suite draw at n-max
    assert drawn == ([n_max] * 3 if code == 0 and n_max > 64 else [])


# ---------------------------------------------------------------------------
# argument errors of the library
# ---------------------------------------------------------------------------

_PAIR = (validate([0.5, 0.5]), validate([0.25, 0.75]))
_PROBLEM = TwoClassProblem.from_arrays([0.5, 0.5], [0.8, 0.2], [0.2, 0.8])

# entry point and arguments: (the call, exception type, message)
ARGUMENT_ERRORS = {
    "TwoClassProblem.from_arrays, three priors": (
        lambda: TwoClassProblem.from_arrays([0.2, 0.3, 0.5], [0.5, 0.5], [0.5, 0.5]),
        bounds.InvalidPriors,
        "expected 2 priors, got 3",
    ),
    "upper_bound_difference, unknown tag": (
        lambda: upper_bound_difference(_PROBLEM, "D_xx"),
        ArgumentError,
        "unknown difference tag 'D_xx'",
    ),
    "star, an array holding 0": (
        lambda: star(generator("J"), np.array([0.0, 0.5])),
        DomainError,
        "star transform requires 0 < x < 1",
    ),
    "MeasureId, unknown tag": (
        lambda: MeasureId("nope"),
        ArgumentError,
        "unknown measure tag 'nope'",
    ),
    "base_measure, a difference": (
        lambda: base_measure("D_dh", *_PAIR),
        ArgumentError,
        "'D_dh' is not a base measure tag",
    ),
    "difference_measure, a base": (
        lambda: difference_measure("J", *_PAIR),
        ArgumentError,
        "'J' is not a difference tag",
    ),
    "limit_constants, a flat generator cataloged infinite": (
        lambda: limit_constants(GeneratingFunction("flat", lambda u: 0.0 * u + 1.0, math.inf)),
        DivboundError,
        "flat: f(0+) cataloged as infinite but evaluations do not diverge",
    ),
    "validate, unknown mode": (
        lambda: validate([0.5, 0.5], "lenient"),
        ArgumentError,
        "unknown mode 'lenient'",
    ),
}


@pytest.mark.parametrize("entry", sorted(ARGUMENT_ERRORS))
def test_every_argument_error_has_its_tabled_exception(entry):
    call, kind, message = ARGUMENT_ERRORS[entry]
    with pytest.raises(DivboundError) as info:
        call()
    assert (type(info.value), str(info.value)) == (kind, message)


# ---------------------------------------------------------------------------
# generator checks at extreme orders
# ---------------------------------------------------------------------------

# One row per family member, one cell per check: inf or fin where it
# returns (limit_constants the stored constant, a probe its minimum), else
# the DivboundError subclass raised.  The xi rows from -1045 to -1024.5
# have finite constants near the top of the double range, where f(u) near
# infinity overflows, so limit_constants cannot cross-check them.
CHECK_OUTCOMES = """
key             limit          generator     star
zeta:-2000.0    inf            ProbeFailure  ProbeFailure
zeta:-1046.0    inf            ProbeFailure  ProbeFailure
zeta:-1024.5    inf            ProbeFailure  ProbeFailure
zeta:-60.0      inf            fin           fin
zeta:-25.0      inf            fin           fin
zeta:26.0       inf            fin           fin
zeta:60.0       inf            fin           fin
zeta:300.0      inf            ProbeFailure  ProbeFailure
zeta:1e+154     inf            ProbeFailure  ProbeFailure
zeta:-1e+154    inf            ProbeFailure  ProbeFailure
zeta:1e+308     inf            ProbeFailure  ProbeFailure
zeta:-1e+308    inf            ProbeFailure  ProbeFailure
xi:-2000.0      inf            ProbeFailure  ProbeFailure
xi:-1046.0      inf            ProbeFailure  fin
xi:-1045.0      DivboundError  ProbeFailure  fin
xi:-1040.0      DivboundError  ProbeFailure  fin
xi:-1024.5      DivboundError  fin           fin
xi:60.0         inf            fin           fin
xi:300.0        inf            ProbeFailure  ProbeFailure
xi:1e+154       inf            ProbeFailure  ProbeFailure
xi:-1e+154      inf            ProbeFailure  ProbeFailure
xi:1e+308       inf            ProbeFailure  ProbeFailure
xi:-1e+308      inf            ProbeFailure  ProbeFailure
"""


def _check_table() -> dict:
    header, *rows = (line.split() for line in CHECK_OUTCOMES.strip().splitlines())
    return {row[0]: dict(zip(header[1:], row[1:])) for row in rows}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key", list(_check_table()))
def test_every_generator_check_has_its_tabled_outcome(key):
    g = generator(key)
    got = {}
    checks = {"limit": limit_constants, "generator": probe_generator, "star": probe_star}
    for name, check in checks.items():
        try:
            value = check(g)
        except DivboundError as exc:
            got[name] = type(exc).__name__
            continue
        if check is limit_constants:
            assert value == g.f_infinity
        got[name] = "inf" if value == math.inf else "fin"
    assert got == _check_table()[key]


@pytest.mark.parametrize(
    "key", [key.label() for key in CATALOG_KEYS if math.isfinite(generator(key).f_infinity)]
)
def test_a_finite_limit_cataloged_infinite_is_caught(key):
    wrong = dataclasses.replace(generator(key), f_infinity=math.inf)
    with pytest.raises(DivboundError, match="cataloged as infinite but evaluations do not diverge"):
        limit_constants(wrong)


def test_a_probe_failure_prints_its_floats():
    with pytest.raises(ProbeFailure) as info:
        probe_star(generator("zeta:300.0"))
    exc = info.value
    assert (type(exc.x), type(exc.value)) == (float, float)
    assert str(exc) == f"non-finite value inf at x={exc.x!r}"
