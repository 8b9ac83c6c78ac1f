"""divbound benchmark: runs one workload and prints its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Inputs are made from the seed and
written under .perfbench_out/; each round runs in a fresh worker process
(perfbench/worker.py), so every round pays set-up and the catalog's lazy
build as a CLI user does.  Rounds repeat until --seconds have passed, and
every round makes the same operations on the same inputs.

--trace 0 reports the end-to-end metrics: medians over the rounds of
timed-phase wall time and peak resident set, and of set-up time over the
rounds and a few import-only processes.

--trace 1 alternates untraced and traced rounds (at least two of each) and
reports the per-layer metrics from the traced ones, plus the tracing
overhead (median traced minus median untraced wall time).

Every round's outputs must equal the first round's, traced or not, and the
first round's outputs are checked against reference.py.  The last line of
standard output is one JSON object with correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKER_TIMEOUT_S = 170
MIN_TRACED_PAIRS = 2
# Set-up is sampled in this many import-only processes besides every round,
# so that its median rests on several samples even when a round is long.
SETUP_SAMPLES = 5

PER_LAYER = (
    ["cli.import_s"]
    + list(tracer.LAYER_TIMES)
    + list(tracer.LAYER_CALLS)
    + ["measures.chain_check_bytes_per_s", "trace.spans", "trace.overhead_s"]
)


def unit_of(metric: str) -> str:
    if metric.endswith("_bytes_per_s"):
        return "B/s"
    return "s" if metric.endswith("_s") else "count"


def run_worker(spec_path: Path, mode: str, env_extra: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DIVBOUND_")}
    # the workloads are single-threaded; keep numpy's BLAS pool from starting threads
    env.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, str(WORKER), str(spec_path), mode],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, env=env, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_round(spec_path: Path, traced: bool, env_extra: dict) -> dict:
    result = run_worker(spec_path, "1" if traced else "0", env_extra)
    result["traced"] = traced
    return result


def outputs(ops: list) -> list:
    """What the program returned, raised and printed, per operation."""
    return [{k: v for k, v in op.items() if k != "stderr"} for op in ops]


def prepare(workload: str, seed: int, **sizes) -> Path:
    """Write the seeded inputs and the round spec; sizes override the workload's defaults."""
    if not (SRC / "divbound" / "__init__.py").is_file():
        raise FileNotFoundError(f"divbound sources not found under {SRC}")
    # byte-compile once, so that no round's set-up includes compiling
    if not compileall.compile_dir(str(SRC / "divbound"), quiet=1):
        raise RuntimeError("divbound sources failed to compile")
    outdir = OUT / f"{workload}{'-small' if sizes else ''}"
    outdir.mkdir(parents=True, exist_ok=True)
    spec = WORKLOADS[workload].make(seed, outdir, **sizes)
    spec.update(workload=workload, seed=seed, src=str(SRC), outdir=str(outdir))
    spec_path = outdir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    return spec_path


def measure_setup(spec_path: Path, env_extra: dict) -> list:
    """Set-up times of SETUP_SAMPLES fresh processes that only import divbound."""
    return [run_worker(spec_path, "setup", env_extra)["setup_s"] for _ in range(SETUP_SAMPLES)]


def measure(spec_path: Path, seconds: float, trace: bool, env_extra: dict) -> list:
    """Rounds until `seconds` have passed; a traced run alternates untraced and traced."""
    pattern = (False, True) if trace else (False,)
    min_rounds = 2 * MIN_TRACED_PAIRS if trace else 1
    rounds = []
    start = time.monotonic()
    while len(rounds) < min_rounds or time.monotonic() - start < seconds:
        rounds += [run_round(spec_path, traced, env_extra) for traced in pattern]
    return rounds


def evaluate(workload: str, spec: dict, rounds: list) -> tuple:
    """(problems, attempted, failed) over all rounds."""
    first = outputs(rounds[0]["ops"])
    problems = []
    for i, r in enumerate(rounds[1:], start=1):
        if outputs(r["ops"]) != first:
            kind = "traced" if r["traced"] else "untraced"
            problems.append(f"round {i} ({kind}) output differs from round 0")
    problems += WORKLOADS[workload].check(spec, rounds[0]["ops"], rounds[0]["n_catalog_keys"])
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(op["failed"] for r in rounds for op in r["ops"])
    return problems, attempted, failed


def metrics(rounds: list, trace: bool, setups: list = ()) -> tuple:
    """(metrics, problems) of the rounds; setups are extra set-up samples."""
    def med(key, which):
        return statistics.median(r[key] for r in rounds if r["traced"] == which)

    if not trace:
        setup = statistics.median(list(setups) + [r["setup_s"] for r in rounds])
        return {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": med("wall_s", False), "unit": "s"},
            "peak_rss_mb": {"value": med("peak_rss_mb", False), "unit": "MB"},
        }, []
    traced = [r for r in rounds if r["traced"]]
    problems = []
    counts = [
        {m: v for m, v in r["layers"].items() if unit_of(m) == "count"} for r in traced
    ]
    if any(c != counts[0] for c in counts[1:]):
        problems.append(f"per-layer counts differ between traced rounds: {counts}")
    values = {"cli.import_s": med("setup_s", True),
              "trace.overhead_s": med("wall_s", True) - med("wall_s", False)}
    for m, v in traced[0]["layers"].items():
        values[m] = v if unit_of(m) == "count" else statistics.median(r["layers"][m] for r in traced)
    return {m: {"value": values[m], "unit": unit_of(m)} for m in PER_LAYER}, problems


def run(workload: str, seed: int, seconds: float, trace: bool, env_extra=None) -> dict:
    """Run one workload and return its result object."""
    spec_path = prepare(workload, seed)
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    setups = [] if trace else measure_setup(spec_path, env_extra or {})
    rounds = measure(spec_path, seconds, trace, env_extra or {})
    problems, attempted, failed = evaluate(workload, spec, rounds)
    values, more = metrics(rounds, trace, setups)
    problems += more
    for i, r in enumerate(rounds):
        print(f"round {i}{' traced' if r['traced'] else ''}: setup {r['setup_s']:.4f} s, "
              f"wall {r['wall_s']:.4f} s, peak rss {r['peak_rss_mb']:.1f} MB, "
              f"failed {sum(op['failed'] for op in r['ops'])}/{len(r['ops'])}")
    if setups:
        print("set-up only: " + ", ".join(f"{x:.4f} s" for x in setups))
    for p in problems:
        print(f"CHECK FAILED: {p}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
