"""The golden files under tests/data, one function each that makes its text,
and a tool that re-takes them.

    python tests/golden.py --diff     print each changed cell, exit 1 if any
    python tests/golden.py --write    rewrite every file from this checkout

The tests compare each function's text with its committed file.  --diff
prints nothing when every file matches.  Otherwise it prints numpy's
runtime (version and SIMD dispatch, on which the digits may depend) as
'#' lines, then one tab-separated line per changed cell: the file, the
row's name (the command and the bound, sweep order, measure or suite),
the column, the old and new cells, and the absolute and relative change.
--write makes every text before it writes any file, and is for a change
that explains every line --diff prints.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent / "data"
SRC = DATA.parent.parent / "src"
if __name__ == "__main__":
    sys.path.insert(0, str(SRC))

from divbound.cli import main  # noqa: E402
from divbound.generators import CATALOG_KEYS  # noqa: E402


def numpy_runtime() -> str:
    """numpy's version and SIMD dispatch, as numpy.show_runtime() prints
    them: a golden-file mismatch says which dispatch level it ran under."""
    shown = io.StringIO()
    with contextlib.redirect_stdout(shown):
        np.show_runtime()
    return shown.getvalue()


def _machine_output(argv: list) -> tuple:
    """(exit code, stdout) of one CLI call in this process, machine format;
    its stderr (the message of a call that exits non-zero) is dropped."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--format", "machine"])
    return code, stdout.getvalue()


GOLDEN_PROBLEMS = ("equal_priors", "k16", "permissive", "overflow")
GOLDEN_GRIDS = ("-1,0,0.5,2", "-1:2:7", "0,1e-7,1,0.9999999", "-1040,-1045,-1100,60,-60")


def bounds_sweep_transcript() -> str:
    """Each golden invocation of bounds and sweep, its exit code and its
    machine output, run in this process one after another."""
    out = []
    for problem in GOLDEN_PROBLEMS:
        path = str(DATA / f"problem_{problem}.txt")
        argvs = [["bounds", "--problem", path, f"--s-grid={grid}"] for grid in GOLDEN_GRIDS]
        argvs += [
            ["sweep", "--problem", path, "--family", family, "--s-grid=-60:60:5"]
            for family in ("zeta", "xi")
        ]
        for argv in argvs:
            code, stdout = _machine_output(argv)
            shown = " ".join([argv[0], f"problem_{problem}.txt", *argv[3:]])
            out.append(f"$ {shown}\nexit {code}\n{stdout}")
    return "".join(out)


GOLDEN_PAIRS = (("strict", "strict"), ("permissive", "permissive"))
GOLDEN_MEASURES = [key.label() for key in CATALOG_KEYS] + ["xi:60", "xi:-60", "zeta:60"]


def measure_transcript() -> str:
    """measure on each golden pair and measure spec, its exit code and its
    machine output, run in this process one after another."""
    out = []
    for pair, mode in GOLDEN_PAIRS:
        p, q = (str(DATA / f"pair_{pair}_{side}.txt") for side in "pq")
        for spec in GOLDEN_MEASURES:
            argv = ["measure", "--p", p, "--q", q, "--measure", spec, "--mode", mode]
            code, stdout = _machine_output(argv)
            out.append(f"$ measure pair_{pair} {spec}\nexit {code}\n{stdout}")
    return "".join(out)


# The verify golden files: the stdout of `divbound verify` with these arguments.
VERIFY_ARGVS = {
    "verify_10000_seed42_machine.txt": ["--trials", "10000", "--seed", "42"],
    "verify_3000_nmax300_seed5_machine.txt": ["--trials", "3000", "--n-max", "300", "--seed", "5"],
}


def run_verify(argv: list) -> subprocess.CompletedProcess:
    """`divbound verify ARGV --format machine` in a fresh process of this
    checkout, with no DIVBOUND_ variable set."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DIVBOUND_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "divbound", "verify", *argv, "--format", "machine"],
        capture_output=True, timeout=300, env=env,
    )


def verify_transcript(argv: list) -> str:
    run = run_verify(argv)
    if run.returncode != 0:
        raise RuntimeError(f"verify {argv} exited {run.returncode}: {run.stderr.decode()}")
    return run.stdout.decode("utf-8")


GOLDEN = {
    "bounds_sweep_machine.txt": bounds_sweep_transcript,
    "measure_machine.txt": measure_transcript,
    **{name: partial(verify_transcript, argv) for name, argv in VERIFY_ARGVS.items()},
}


def _rows(text: str) -> dict:
    """{row name: {column: cell}} of a golden text.  A '$ ' line names the
    command whose exit code (the row named by the command alone) and table
    follow; a verify file is one table."""
    rows, seen, command, header = {}, Counter(), "", None
    for line in text.splitlines():
        if line.startswith("$ "):
            command, header = line[2:], None
        elif header is None and line.startswith("exit "):
            rows[command] = {"exit": line[len("exit "):]}
        elif header is None:
            header = line.split("\t")
        else:
            cells = line.split("\t")
            name = f"{command}: {cells[0]}" if command else cells[0]
            # a grid may name an order twice (0 and 1e-7 both snap to 0.0)
            seen[name] += 1
            name += f" #{seen[name]}" if seen[name] > 1 else ""
            rows[name] = dict(zip(header[1:], cells[1:]))
    return rows


def _change(old, new) -> tuple:
    """(absolute, relative) change from old to new, or '-' where either
    cell is missing or not a number."""
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return "-", "-"
    delta = b - a
    return repr(delta), repr(delta / abs(a)) if a else "-"


def diff_lines(name: str, old: str, new: str) -> list:
    """One tab-separated line per cell that differs between two texts of
    the golden file `name`, in the old file's row order."""
    if old == new:
        return []
    before, after = _rows(old), _rows(new)
    lines = []
    for row in {**before, **after}:
        cells_before, cells_after = before.get(row, {}), after.get(row, {})
        for column in {**cells_before, **cells_after}:
            a, b = cells_before.get(column), cells_after.get(column)
            if a != b:
                shown = ["(none)" if cell is None else cell for cell in (a, b)]
                lines.append("\t".join([name, row, column, *shown, *_change(a, b)]))
    if not lines:  # the same cells, laid out otherwise
        lines.append(f"{name}\t(layout)\t-\t-\t-\t-\t-")
    return lines


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--diff", action="store_true", help="print each changed cell")
    action.add_argument("--write", action="store_true", help="rewrite the golden files")
    args = parser.parse_args(argv)
    # every text is made before any file is written, so a maker that fails
    # leaves every file as it was
    texts = {name: make() for name, make in GOLDEN.items()}
    changed = []
    for name, text in texts.items():
        if args.write:
            (DATA / name).write_bytes(text.encode("utf-8"))
        else:
            changed += diff_lines(name, (DATA / name).read_text(encoding="utf-8"), text)
    if changed:
        print("".join(f"# {line}\n" for line in numpy_runtime().splitlines()), end="")
        print("\n".join(changed))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(_main())
