"""Per-layer timings of divbound at fixed sizes, each layer in a fresh process.

    python tests/bench_layers.py --out BENCH_<n>.json           every layer
    python tests/bench_layers.py --out FILE NAME ...            the named layers

Each layer runs in a new Python process, which imports divbound from this
checkout's src/, makes the layer's seeded inputs (as perfbench makes its
own: softmax of standard normals, priors uniform on (0.05, 0.95)), calls
the layer once to warm up and then --repeats times (at least 15).  The
JSON file holds, per layer, the median and the quartiles of the repeats
in seconds, and the environment: CPU count, affinity mask, Python, numpy
and libc versions, and numpy's SIMD baseline and dispatch.  The import
layer times `import divbound, divbound.cli` in a new process per repeat.

The layers: validate and the base, family and catalog-table cell passes
at n = 2^20; bound_report and its stage 1 at k = 4 and 4096; stage 1 and
stage 2 of a 20-order sweep of each family at k = 4096; each verify suite
at 10,000 trials (its Csiszar and bound suites at a tenth of that, as
verify runs them); and import.  All of it takes about 15 s on a 2-vCPU
x86 host.  pytest does not collect this file; tests/test_bench_layers.py
runs every layer once at toy sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
LARGE_N = 2**20
LARGE_K = 4096
SWEEP_GRID = "-1:0.9:20"
VERIFY_TRIALS = 10_000
REPEATS = 15


def _softmax(rng: np.random.Generator, n: int) -> np.ndarray:
    w = np.exp(rng.standard_normal(n))
    return w / w.sum()


def _pair(n: int):
    from divbound import STRICT, validate

    rng = np.random.default_rng([SEED, n])
    return validate(_softmax(rng, n), STRICT), validate(_softmax(rng, n), STRICT)


def _problem(k: int):
    from divbound.bounds import TwoClassProblem

    rng = np.random.default_rng([SEED, k])
    p1 = float(rng.uniform(0.05, 0.95))
    return TwoClassProblem.from_arrays((p1, 1.0 - p1), _softmax(rng, k), _softmax(rng, k))


# Each layer maker takes the layer's sizes, makes its inputs and returns
# the call to time.


def validate_layer(n: int):
    from divbound import STRICT, validate

    p = _softmax(np.random.default_rng([SEED, n]), n)
    return lambda: validate(p, STRICT)


def base_pass(n: int):
    from divbound.measures import BASE_TAGS, BaseSums, MeasureId

    P, Q = _pair(n)
    mids = [MeasureId(tag) for tag in BASE_TAGS]
    return lambda: BaseSums(P.probs, Q.probs).measures(mids)


def family_pass(n: int):
    from divbound.generators import CATALOG_KEYS
    from divbound.measures import BaseSums

    P, Q = _pair(n)
    mids = [key for key in CATALOG_KEYS if key.s is not None]
    return lambda: BaseSums(P.probs, Q.probs).measures(mids)


def table_pass(n: int):
    # csiszar_sum sums a validated pair's whole table once and keeps it:
    # forgetting the kept pair makes each call sum the table again
    from divbound import measures
    from divbound.generators import csiszar_sum, generator

    P, Q = _pair(n)
    g = generator("D_IDelta")

    def run():
        measures._last_pair = (None, None, None)
        return csiszar_sum(g, P, Q)

    return run


def report(k: int):
    from divbound.bounds import bound_report

    problem = _problem(k)
    return lambda: bound_report(problem)


def report_stage_1(k: int):
    from divbound.bounds import _live_posterior_arrays, posterior_averages, report_generators

    px, a2 = _live_posterior_arrays(_problem(k))
    gens = report_generators()
    return lambda: posterior_averages(px[None], a2[None], gens)


def sweep_stage_1(family: str, k: int):
    from divbound.bounds import _family_generator, problem_averages
    from divbound.formats import parse_s_grid

    problem = _problem(k)
    gens = [_family_generator(family, s) for s in parse_s_grid(SWEEP_GRID)]
    return lambda: problem_averages(problem, gens)


def sweep_stage_2(family: str, k: int):
    # family_grid_bounds with its stage 1 handed the averages made here
    from divbound import bounds
    from divbound.formats import parse_s_grid

    problem, grid = _problem(k), parse_s_grid(SWEEP_GRID)
    averages = bounds.problem_averages(problem, [bounds._family_generator(family, s) for s in grid])

    def run():
        stage_1 = bounds.problem_averages
        bounds.problem_averages = lambda problem, gens: averages
        try:
            return bounds.family_grid_bounds(problem, family, grid)
        finally:
            bounds.problem_averages = stage_1

    return run


def verify_suite(suite: str, trials: int):
    from divbound import verify

    if suite == "star_transform":
        return verify._star_suite
    reduced = max(1, trials // verify.REDUCED_FACTOR)
    # (suite, arguments before its generator, the generator's index, after)
    fn, before, index, after = {
        "eq7_chain": (verify._chain_suite, ("eq7_chain", "eq7", trials), 0, (64, False)),
        "eq39_chain": (verify._chain_suite, ("eq39_chain", "eq39", trials), 1, (64, False)),
        "csiszar_equiv": (verify._csiszar_suite, (reduced,), 2, (64,)),
        "sandwich": (verify._sandwich_suite, (reduced,), 3, ()),
        "comparisons": (verify._comparison_suite, (reduced,), 4, ()),
    }[suite]
    # a new generator per call, seeded as run_verify seeds the suite at --seed SEED
    return lambda: fn(*before, np.random.default_rng([SEED, index]), *after)


# name: (layer maker, its arguments, its arguments at toy size)
LAYERS = {
    "validate_n2^20": (validate_layer, (LARGE_N,), (64,)),
    "base_pass_n2^20": (base_pass, (LARGE_N,), (64,)),
    "family_pass_n2^20": (family_pass, (LARGE_N,), (64,)),
    "table_pass_n2^20": (table_pass, (LARGE_N,), (64,)),
    "bound_report_k4": (report, (4,), (4,)),
    "bound_report_k4096": (report, (LARGE_K,), (16,)),
    "report_stage_1_k4": (report_stage_1, (4,), (4,)),
    "report_stage_1_k4096": (report_stage_1, (LARGE_K,), (16,)),
    **{
        f"sweep_{family}_stage_{stage}_k4096": (maker, (family, LARGE_K), (family, 16))
        for family in ("zeta", "xi")
        for stage, maker in ((1, sweep_stage_1), (2, sweep_stage_2))
    },
    **{
        f"verify_{suite}": (verify_suite, (suite, VERIFY_TRIALS), (suite, 20))
        for suite in ("eq7_chain", "eq39_chain", "csiszar_equiv", "star_transform",
                      "sandwich", "comparisons")
    },
}
IMPORT = "import"


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def import_seconds() -> float:
    """The time one new process takes to import divbound and divbound.cli."""
    code = (
        "import time; t = time.perf_counter(); import divbound, divbound.cli; "
        "print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True
    )
    return float(done.stdout)


def time_layer(name: str, repeats: int) -> list:
    """The seconds of each of `repeats` calls of a layer, after one warm-up
    call, in this process."""
    maker, args, _ = LAYERS[name]
    run = maker(*args)
    run()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return times


def _measure(name: str, repeats: int) -> list:
    if name == IMPORT:
        return [import_seconds() for _ in range(repeats + 1)][1:]
    done = subprocess.run(
        [sys.executable, __file__, "--child", name, "--repeats", str(repeats)],
        env=_env(), capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def environment() -> dict:
    from numpy._core import _multiarray_umath as umath

    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "libc": " ".join(platform.libc_ver()),
        "numpy_cpu_baseline": list(umath.__cpu_baseline__),
        "numpy_cpu_dispatch": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)],
    }


def summary(times: list) -> dict:
    q1, median, q3 = np.percentile(times, [25, 50, 75]).tolist()
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "repeats": len(times)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="layers to time (default: all)")
    parser.add_argument("--out", type=Path, help="the JSON file to write")
    parser.add_argument("--repeats", type=int, default=REPEATS, help="timed calls per layer")
    parser.add_argument("--child", help=argparse.SUPPRESS)  # time one layer, print its list
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(time_layer(args.child, args.repeats)))
        return 0
    if args.out is None:
        parser.error("--out is required")
    if args.repeats < REPEATS:
        parser.error(f"--repeats must be at least {REPEATS}")
    names = args.names or [IMPORT, *LAYERS]
    unknown = [name for name in names if name != IMPORT and name not in LAYERS]
    if unknown:
        parser.error(f"unknown layers: {', '.join(unknown)}")
    layers = {}
    for name in names:
        layers[name] = summary(_measure(name, args.repeats))
        print(f"{name}\t{layers[name]['median_s'] * 1e3:.3f} ms", file=sys.stderr)
    result = {"environment": environment(), "seed": SEED, "layers": layers}
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
