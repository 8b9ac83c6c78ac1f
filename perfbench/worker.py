"""One round of a workload, in a fresh process.

    python3 perfbench/worker.py SPEC.json MODE

MODE is 0 (untraced round), 1 (traced round) or setup (set-up only).
Set-up is the import of divbound and divbound.cli, timed before anything
else heavy is imported, because every CLI run pays it.  The timed phase is
the round's operations, one after another; the generator catalog's lazy
build falls inside it, as it does for a CLI user.  Prints one JSON object.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    mode = argv[2]
    src = Path(spec["src"])
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import divbound
    import divbound.cli  # noqa: F401  (the CLI layer is part of set-up)
    setup_s = time.perf_counter() - t0

    if src.resolve() not in Path(divbound.__file__).resolve().parents:
        sys.stderr.write(f"divbound imported from {divbound.__file__}, not from {src}\n")
        return 2
    if mode == "setup":
        sys.stdout.write(json.dumps({"setup_s": setup_s}) + "\n")
        return 0

    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    inputs = workload.load(spec)
    tracer = None
    if mode == "1":
        tracer = Tracer()
        tracer.install()

    t0 = time.perf_counter()
    ops = workload.run(spec, divbound, inputs)
    wall_s = time.perf_counter() - t0

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "n_catalog_keys": len(divbound.CATALOG_KEYS),
        "ops": ops,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.save(Path(spec["outdir"]) / "spans.npz")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
