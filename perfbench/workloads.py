"""The three workloads: their inputs, their operations and their checks.

Each workload has three parts.  ``make_*`` runs in the benchmark process and
writes the seeded inputs; ``run_*`` runs in a fresh worker process and makes
the program calls of one round, one after another; ``check_*`` runs in the
benchmark process and compares one round's outputs with values computed in
``reference.py`` or with properties the method must have.  An operation
record holds what the program returned or raised and what it printed.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import reference as ref

VERIFY_TRIALS = 10_000
LARGE_K = 4096
SMALL_K = 256
LARGE_N = 2**20

# Documented tolerances the program's own output is held to (README).
CHAIN_TOL = 1e-9
CSISZAR_TOL = 1e-11
STAR_TOL = 1e-12
SANDWICH_TOL = 1e-10
COMPARISON_TOL = 1.5e-12  # 1e-12 (1 + |rhs|) with rhs <= 1/2
MEASURE_RTOL = 1e-9
EXACT_ATOL = 1e-13

VERIFY_SUITES = ("eq7_chain", "eq39_chain", "csiszar_equiv", "star_transform", "sandwich", "comparisons")
COMPARISONS_PER_PROBLEM = 4
STAR_CHECKS_PER_KEY = 2

# The known overflow fault: the zeta sweep on this fixed problem raises out
# of the CLI.  Its input does not depend on the seed, so it fails in every run.
OVERFLOW_PROBLEM = {
    "priors": (0.5, 0.5),
    "cond1": (0.9999999999999, 0.0000000000001),
    "cond2": (0.5, 0.5),
}
OVERFLOW_GRID = "-60:60:5"
SWEEP_GRID = "-1:0.9:20"
BOUNDS_GRID = "-1,0,0.5,2"
WIDE_BOUNDS_GRID = "-1:2:7"


def cli_op(cli, argv) -> dict:
    """Run ``divbound.cli.main`` in-process, capturing what it prints and raises."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except Exception as exc:  # a raised fault is recorded as a failed operation
            error = f"{type(exc).__name__}: {exc}"
    failed = error is not None or rc != 0
    return {"argv": list(argv), "rc": rc, "error": error, "failed": failed,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def lib_op(name: str, fn, *args) -> tuple:
    """Run one library call; returns (record, value or None)."""
    try:
        value = fn(*args)
    except Exception as exc:  # recorded as a failed operation
        return {"op": name, "failed": True, "error": f"{type(exc).__name__}: {exc}"}, None
    return {"op": name, "failed": False, "error": None}, value


def grid_of(argv: list) -> list:
    return ref.s_grid(next(a for a in argv if a.startswith("--s-grid=")).split("=", 1)[1])


def rows(text: str) -> list:
    """Machine output as a list of {column: cell} dicts."""
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def close(a: float, b: float, rtol: float = MEASURE_RTOL) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * abs(b)


# ---------------------------------------------------------------------------
# verify_10k: one in-process `divbound verify --trials 10000`
# ---------------------------------------------------------------------------


def make_verify(seed: int, outdir: Path, trials: int = VERIFY_TRIALS) -> dict:
    return {"trials": trials,
            "argv": ["verify", "--trials", str(trials), "--seed", str(seed), "--format", "machine"]}


def run_verify(spec: dict, db, _inputs) -> list:
    return [cli_op(db.cli, spec["argv"])]


def check_verify(spec: dict, ops: list, n_keys: int) -> list:
    (op,) = ops
    if op["failed"]:
        return []
    problems = []
    got = rows(op["stdout"])
    if tuple(r.get("suite") for r in got) != VERIFY_SUITES:
        return [f"verify: suites {[r.get('suite') for r in got]} != {list(VERIFY_SUITES)}"]
    trials = spec["trials"]
    reduced = max(1, trials // 10)
    expected_checks = {
        "eq7_chain": trials,
        "eq39_chain": trials,
        "csiszar_equiv": reduced * n_keys,
        "star_transform": STAR_CHECKS_PER_KEY * n_keys,
        "sandwich": reduced,
        "comparisons": COMPARISONS_PER_PROBLEM * reduced,
    }
    # inequality suites report their most negative slack, equality suites their largest deviation
    within = {
        "eq7_chain": lambda w: w >= -CHAIN_TOL,
        "eq39_chain": lambda w: w >= -CHAIN_TOL,
        "csiszar_equiv": lambda w: 0.0 <= w <= CSISZAR_TOL,
        "star_transform": lambda w: 0.0 <= w <= STAR_TOL,
        "sandwich": lambda w: w >= -SANDWICH_TOL,
        "comparisons": lambda w: w >= -COMPARISON_TOL,
    }
    for r in got:
        suite = r["suite"]
        if int(r["checks"]) != expected_checks[suite]:
            problems.append(f"verify {suite}: {r['checks']} checks, expected {expected_checks[suite]}")
        if int(r["failures"]) != 0:
            problems.append(f"verify {suite}: {r['failures']} failures")
        if not within[suite](float(r["worst"])):
            problems.append(f"verify {suite}: worst {r['worst']} outside its tolerance")
    return problems


# ---------------------------------------------------------------------------
# bounds_large_k: `bounds` and `sweep` on problem files at k = 4096 and 256
# ---------------------------------------------------------------------------


def _softmax(rng: np.random.Generator, k: int) -> np.ndarray:
    w = np.exp(rng.standard_normal(k))
    return w / w.sum()


def _write_problem(path: Path, priors, cond1, cond2) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, values in (("priors", priors), ("cond1", cond1), ("cond2", cond2)):
            fh.write(f"{key}: " + " ".join(repr(float(v)) for v in values) + "\n")


def make_bounds(seed: int, outdir: Path, large_k: int = LARGE_K, small_k: int = SMALL_K) -> dict:
    rng = np.random.default_rng([seed, 1])
    problems = {}

    def add(name, priors, c1, c2):
        path = outdir / f"{name}.txt"
        _write_problem(path, priors, c1, c2)
        problems[name] = str(path)

    add("equal_large", (0.5, 0.5), _softmax(rng, large_k), _softmax(rng, large_k))
    p1 = float(rng.uniform(0.05, 0.95))
    add("unequal_small", (p1, 1.0 - p1), _softmax(rng, small_k), _softmax(rng, small_k))
    p1 = float(rng.uniform(0.05, 0.95))
    add("unequal_large", (p1, 1.0 - p1), _softmax(rng, large_k), _softmax(rng, large_k))
    add("overflow", OVERFLOW_PROBLEM["priors"], OVERFLOW_PROBLEM["cond1"], OVERFLOW_PROBLEM["cond2"])

    def bounds(name, grid):
        return ["bounds", "--problem", problems[name], f"--s-grid={grid}", "--format", "machine"]

    def sweep(name, family, grid):
        return ["sweep", "--problem", problems[name], "--family", family,
                f"--s-grid={grid}", "--format", "machine"]

    argvs = [
        bounds("equal_large", BOUNDS_GRID),
        bounds("unequal_small", WIDE_BOUNDS_GRID),
        sweep("unequal_small", "zeta", SWEEP_GRID),
        sweep("unequal_small", "xi", SWEEP_GRID),
        sweep("unequal_large", "zeta", SWEEP_GRID),
        sweep("unequal_large", "xi", SWEEP_GRID),
        sweep("overflow", "zeta", OVERFLOW_GRID),
    ]
    return {"problems": problems, "argvs": argvs}


def run_bounds(spec: dict, db, _inputs) -> list:
    return [cli_op(db.cli, argv) for argv in spec["argvs"]]


def _load_problem(path: str) -> ref.ProblemReference:
    fields = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        key, _, rest = line.partition(":")
        fields[key] = [float(tok) for tok in rest.split()]
    return ref.ProblemReference(fields["priors"], fields["cond1"], fields["cond2"])


def _check_lower(where: str, family: str, s: float, value: float, averaged: float,
                 pe: float, note: str = "") -> list:
    problems = []
    if not 0.0 <= value <= pe + SANDWICH_TOL:
        problems.append(f"{where}: lower bound {value!r} not in [0, P_e={pe!r}]")
    if math.isinf(averaged) or "vacuous" in note:
        return problems
    # the bound inverts the decreasing pointwise form at the averaged value
    residual = abs(float(ref.point(family, s, value)) - averaged)
    if value < 0.5 and residual > 1e-9 * (1.0 + averaged):
        problems.append(f"{where}: lower bound {value!r} leaves inversion residual {residual!r}")
    return problems


def _check_upper(where: str, value: float, pe: float) -> list:
    if not pe - SANDWICH_TOL <= value <= 0.5:
        return [f"{where}: upper bound {value!r} not in [P_e={pe!r}, 1/2]"]
    return []


def _check_bounds_op(argv: list, stdout: str, problem: ref.ProblemReference) -> list:
    grid = grid_of(argv)
    pe = problem.bayes_error
    got = {r["name"]: r for r in rows(stdout)}
    where = f"bounds {Path(argv[2]).stem}"
    problems = []
    exact = got.get("bayes_error")
    if exact is None or abs(float(exact["value"]) - pe) > EXACT_ATOL:
        problems.append(f"{where}: bayes_error {exact and exact['value']} != {pe!r}")
    expected = {"kailath", "toussaint_general", "toussaint_inversion"}
    expected |= {f"diff_upper({t})" for t in ("D_dDelta", "D_dh", "D_dI", "D_hI", "D_hDelta", "D_IDelta")}
    expected |= {f"{fam}_{side}(s={s!r})" for fam in ("zeta", "xi") for side in ("lower", "upper") for s in grid}
    missing = expected - set(got)
    if missing:
        problems.append(f"{where}: missing rows {sorted(missing)}")
    for name, r in got.items():
        if name == "bayes_error" or r["applicable"] != "true":
            continue
        value = float(r["value"])
        if r["kind"] == "lower" and value > pe + SANDWICH_TOL:
            problems.append(f"{where}: {name} = {value!r} above P_e = {pe!r}")
        if r["kind"] == "upper" and value < pe - SANDWICH_TOL:
            problems.append(f"{where}: {name} = {value!r} below P_e = {pe!r}")
    kailath = got.get("kailath")
    if kailath is not None:
        if problem.equal_priors != (kailath["applicable"] == "true"):
            problems.append(f"{where}: kailath applicable={kailath['applicable']} with priors "
                            f"{problem.p1!r}, {problem.p2!r}")
        elif problem.equal_priors and not close(float(kailath["value"]), problem.kailath()):
            problems.append(f"{where}: kailath {kailath['value']} != 1/4 exp(-J/2) = {problem.kailath()!r}")
    for fam in ("zeta", "xi"):
        for s in grid:
            avg = problem.averaged(fam, s)
            low = got.get(f"{fam}_lower(s={s!r})")
            if low is not None:
                problems += _check_lower(f"{where} {fam}_lower(s={s!r})", fam, s,
                                         float(low["value"]), avg, pe, low.get("note", ""))
            up = got.get(f"{fam}_upper(s={s!r})")
            if up is None:
                continue
            has_bound = math.isfinite(ref.f_infinity(fam, s))
            if has_bound != (up["applicable"] == "true"):
                problems.append(f"{where}: {fam}_upper(s={s!r}) applicable={up['applicable']}")
            elif has_bound and not close(float(up["value"]), ref.upper_bound(fam, s, avg)):
                problems.append(f"{where}: {fam}_upper(s={s!r}) = {up['value']} != "
                                f"{ref.upper_bound(fam, s, avg)!r}")
    return problems


def _check_sweep_op(argv: list, stdout: str, problem: ref.ProblemReference) -> list:
    family = argv[argv.index("--family") + 1]
    grid = grid_of(argv)
    where = f"sweep {family} {Path(argv[2]).stem}"
    got = rows(stdout)
    if [float(r["s"]) for r in got] != grid:
        return [f"{where}: s column {[r['s'] for r in got]} != grid {grid}"]
    pe = problem.bayes_error
    problems = []
    for r, s in zip(got, grid):
        avg = problem.averaged(family, s)
        if not close(float(r["averaged"]), avg):
            problems.append(f"{where} s={s!r}: averaged {r['averaged']} != {avg!r}")
        problems += _check_lower(f"{where} s={s!r}", family, s, float(r["lower"]), avg, pe)
        has_bound = math.isfinite(ref.f_infinity(family, s))
        if has_bound == (r["upper"] == "n/a"):
            problems.append(f"{where} s={s!r}: upper {r['upper']} where f_inf is "
                            f"{ref.f_infinity(family, s)!r}")
        elif has_bound:
            problems += _check_upper(f"{where} s={s!r}", float(r["upper"]), pe)
    return problems


def check_bounds(spec: dict, ops: list, n_keys: int) -> list:
    refs = {name: _load_problem(path) for name, path in spec["problems"].items()}
    by_path = {path: refs[name] for name, path in spec["problems"].items()}
    problems = []
    for op in ops:
        if op["failed"]:
            continue
        argv = op["argv"]
        problem = by_path[argv[argv.index("--problem") + 1]]
        if argv[0] == "bounds":
            problems += _check_bounds_op(argv, op["stdout"], problem)
        else:
            problems += _check_sweep_op(argv, op["stdout"], problem)
    return problems


# ---------------------------------------------------------------------------
# kernels_large_n: direct library calls on strictly positive pairs at n = 2^20
# ---------------------------------------------------------------------------


def make_kernels(seed: int, outdir: Path, n: int = LARGE_N) -> dict:
    rng = np.random.default_rng([seed, 2])

    def softmax(logits):
        w = np.exp(logits - logits.max())
        return w / w.sum()

    base = rng.standard_normal(n)
    pairs = [
        # independent standard-normal logits
        (softmax(base), softmax(rng.standard_normal(n))),
        # a peaked and a flat distribution
        (softmax(2.0 * rng.standard_normal(n)), softmax(0.5 * rng.standard_normal(n))),
        # a nearby pair: the same logits, perturbed
        (softmax(base), softmax(base + 0.25 * rng.standard_normal(n))),
    ]
    paths = []
    for i, (p, q) in enumerate(pairs):
        pq = (str(outdir / f"pair{i}_p.npy"), str(outdir / f"pair{i}_q.npy"))
        np.save(pq[0], p)
        np.save(pq[1], q)
        paths.append(pq)
    return {"pairs": paths}


def load_kernels(spec: dict) -> list:
    return [(np.load(p), np.load(q)) for p, q in spec["pairs"]]


def run_kernels(spec: dict, db, arrays: list) -> list:
    ops = []
    for i, (p, q) in enumerate(arrays):
        rec_p, P = lib_op(f"pair{i} validate P", db.validate, p)
        rec_q, Q = lib_op(f"pair{i} validate Q", db.validate, q)
        ops += [rec_p, rec_q]
        for which in ("eq7", "eq39"):
            rec, report = lib_op(f"pair{i} chain_check {which}", db.chain_check, P, Q, which)
            if report is not None:
                rec["ok"] = report.ok
                rec["values"] = [v for _, v in report.values]
            ops.append(rec)
        for key in db.CATALOG_KEYS:
            rec, value = lib_op(f"pair{i} measure_value {key.label()}", db.measure_value, key, P, Q)
            rec.update(label=key.label(), value=value)
            ops.append(rec)
        for key in db.CATALOG_KEYS:
            rec, value = lib_op(f"pair{i} csiszar_sum {key.label()}",
                                lambda k: db.csiszar_sum(db.generator(k), P, Q), key)
            rec.update(label=key.label(), value=value)
            ops.append(rec)
    return ops


def check_kernels(spec: dict, ops: list, n_keys: int) -> list:
    problems = []
    for i, (p_path, q_path) in enumerate(spec["pairs"]):
        pair = ref.PairMeasures(np.load(p_path), np.load(q_path))
        prefix = f"pair{i} "
        mine = [op for op in ops if op["op"].startswith(prefix) and not op["failed"]]
        labels = [op["label"] for op in mine if op["op"].startswith(prefix + "measure_value")]
        if len(labels) != n_keys:
            problems.append(f"pair{i}: {len(labels)} measures for {n_keys} catalog keys")
        for op in mine:
            name = op["op"]
            if "chain_check" in name:
                which = name.rsplit(" ", 1)[1]
                expect = pair.chain(which)
                if not op["ok"]:
                    problems.append(f"{name}: chain reported violated")
                if any(b - a < -CHAIN_TOL * (1.0 + b) for a, b in zip(expect, expect[1:])):
                    problems.append(f"{name}: reference chain does not hold")
                bad = [(a, b) for a, b in zip(op["values"], expect) if not close(a, b)]
                if bad or len(op["values"]) != len(expect):
                    problems.append(f"{name}: values {op['values']} != reference {expect}")
            elif "measure_value" in name:
                want = pair.value(op["label"])
                if not close(op["value"], want):
                    problems.append(f"{name}: {op['value']!r} != reference {want!r}")
            elif "csiszar_sum" in name:
                want = pair.value(op["label"])
                if abs(op["value"] - want) > CSISZAR_TOL * (1.0 + abs(want)):
                    problems.append(f"{name}: {op['value']!r} != reference {want!r}")
    return problems


def no_inputs(spec: dict) -> None:
    return None


class Workload(NamedTuple):
    make: Callable  # (seed, outdir) -> spec, in the benchmark process
    load: Callable  # spec -> inputs, in the worker before the timed phase
    run: Callable  # (spec, divbound, inputs) -> operation records, the timed phase
    check: Callable  # (spec, records, number of catalog keys) -> problems


WORKLOADS = {
    "verify_10k": Workload(make_verify, no_inputs, run_verify, check_verify),
    "bounds_large_k": Workload(make_bounds, no_inputs, run_bounds, check_bounds),
    "kernels_large_n": Workload(make_kernels, load_kernels, run_kernels, check_kernels),
}
