"""Self-test of the benchmark's checks, at small sizes.

    python3 perfbench/selftest.py

Shows that each check passes on the program's real output and fails when
the output is wrong:

  * verify with DIVBOUND_VERIFY_CORRUPT=1 is counted as a failed operation;
  * a bounds, sweep or kernel output with one value perturbed fails its check;
  * a traced round whose output differs from the untraced one is reported;
  * traced and untraced rounds print byte-identical output and traced
    rounds repeat every count.

Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys

import run
from workloads import WORKLOADS

SEED = 7
SMALL = {
    "verify_10k": {"trials": 200},
    "bounds_large_k": {"large_k": 64, "small_k": 16},
    "kernels_large_n": {"n": 1024},
}


def perturb_cell(op: dict, row_name: str, column: str, factor: float = 1.0 + 1e-6) -> dict:
    """Copy of a CLI operation with one machine-output cell scaled."""
    lines = op["stdout"].rstrip("\n").split("\n")
    header = lines[0].split("\t")
    col = header.index(column)
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split("\t")
        if cells[0] == row_name:
            cells[col] = repr(float(cells[col]) * factor)
            lines[i] = "\t".join(cells)
            break
    else:
        raise KeyError(row_name)
    bad = copy.deepcopy(op)
    bad["stdout"] = "\n".join(lines) + "\n"
    return bad


def small_rounds(workload: str, trace: bool, env_extra=None):
    spec_path = run.prepare(workload, SEED, **SMALL[workload])
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    return spec, run.measure(spec_path, 0.0, trace, env_extra or {})


def main() -> int:
    results = []

    def expect(what: str, ok: bool) -> None:
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {what}")

    for workload in SMALL:
        spec, rounds = small_rounds(workload, trace=True)
        problems, attempted, failed = run.evaluate(workload, spec, rounds)
        _, count_problems = run.metrics(rounds, trace=True)
        expect(f"{workload}: traced and untraced rounds agree and pass the checks {problems}",
               not problems and not count_problems)
        bad = copy.deepcopy(rounds)
        bad[1]["ops"][0]["stdout" if "stdout" in bad[1]["ops"][0] else "error"] = "changed"
        expect(f"{workload}: a traced round with changed output is reported",
               any("traced" in p for p in run.evaluate(workload, spec, bad)[0]))
        bad = copy.deepcopy(rounds)
        bad[3]["layers"]["kernel.invert_fevals"] += 1
        expect(f"{workload}: a traced round with a changed count is reported",
               bool(run.metrics(bad, trace=True)[1]))

    spec, rounds = small_rounds("verify_10k", False, {"DIVBOUND_VERIFY_CORRUPT": "1"})
    _, attempted, failed = run.evaluate("verify_10k", spec, rounds)
    expect("verify with DIVBOUND_VERIFY_CORRUPT=1 counts as failed", failed == attempted == len(rounds))

    check = WORKLOADS["bounds_large_k"].check
    spec, rounds = small_rounds("bounds_large_k", False)
    ops, n_keys = rounds[0]["ops"], rounds[0]["n_catalog_keys"]
    for index, row, column in (
        (0, "bayes_error", "value"),
        (0, "kailath", "value"),
        (0, "zeta_lower(s=-1.0)", "value"),
        (1, "xi_upper(s=-0.5)", "value"),
        (2, "-1.0", "averaged"),
        (3, "0.0", "lower"),
    ):
        bad = list(ops)
        bad[index] = perturb_cell(ops[index], row, column)
        expect(f"bounds: perturbed {row} {column} in op {index} fails its check",
               bool(check(spec, bad, n_keys)))

    check = WORKLOADS["kernels_large_n"].check
    spec, rounds = small_rounds("kernels_large_n", False)
    ops, n_keys = rounds[0]["ops"], rounds[0]["n_catalog_keys"]
    for name in ("pair0 measure_value D_hI", "pair1 csiszar_sum zeta:0.5", "pair2 chain_check eq39"):
        bad = copy.deepcopy(ops)
        op = next(o for o in bad if o["op"] == name)
        if "values" in op:
            op["values"][-1] *= 1.0 + 1e-6
        else:
            op["value"] *= 1.0 + 1e-6
        expect(f"kernels: perturbed {name} fails its check", bool(check(spec, bad, n_keys)))

    print(f"{sum(results)}/{len(results)} self-test expectations hold")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
