"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/``;
the workloads, metric names and units come from ``BENCHMARK.json``.  With
``--trace 0`` the last line holds every end-to-end metric, with
``--trace 1`` every per-layer metric.  Scratch files live in
``.bench_work/`` under the root; the traced spans (JSONL) and a result
record stay in ``.bench_work/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro is missing; run from a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = {w["name"] for w in spec["workloads"]}
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads)}",
              file=sys.stderr)
        return 2

    # Pin every BLAS pool to one thread before numpy loads, and keep all
    # scratch state inside the checkout: the program's default cache
    # directory must never be used, so a cold run is always cold.
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.common import BLAS_ENV

    for name in BLAS_ENV:
        os.environ[name] = "1"
    workdir = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    outdir = os.path.join(ROOT, ".bench_work", "out")
    os.makedirs(os.path.join(workdir, "tmp"), exist_ok=True)
    os.makedirs(outdir, exist_ok=True)
    sentinel = os.path.join(workdir, "default-cache")
    os.environ.update(
        TMPDIR=os.path.join(workdir, "tmp"),
        REPRO_CACHE_DIR=sentinel,
        XDG_CACHE_HOME=os.path.join(workdir, "xdg"),
    )
    tempfile.tempdir = None
    try:
        return run(args, spec, workdir, outdir, sentinel)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args: argparse.Namespace, spec: dict, workdir: str, outdir: str, sentinel: str) -> int:
    from perfbench import serve_mixed, sweeps
    from perfbench.common import Context, env_record

    ctx = Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        workdir=workdir, outdir=outdir, per_layer=tuple(m["name"] for m in spec["per_layer"]),
    )
    workload = {
        "sweep-cold": sweeps.sweep_cold,
        "chunked-paper": sweeps.chunked_paper,
        "serve-mixed": serve_mixed.serve_mixed,
    }[args.workload]
    out = workload(ctx)
    out.check(not os.path.exists(sentinel), "the default cache directory stayed unused")
    out.layers["bench.failed_frac"] = out.failed / max(1, out.attempted)

    # Every declared metric must have been measured, except per-layer
    # ones for work the workload does not do, which read 0.
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = out.layers if args.trace else out.metrics
    missing = [m["name"] for m in declared if m["name"] not in values]
    unmeasured = [name for name in missing if not name.startswith(out.idle)]
    if unmeasured:
        print(f"perfbench: declared metrics not measured: {unmeasured}", file=sys.stderr)
        return 1
    values = dict.fromkeys(missing, 0.0) | values
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env_record(), "metrics": out.metrics,
        "layers": out.layers, "attempted": out.attempted, "failed": out.failed,
        "notes": out.notes,
    }
    with open(os.path.join(outdir, f"{ctx.name}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    for note in out.notes:
        print(note)
    print("env " + json.dumps(record["env"], sort_keys=True))
    for key in sorted(values):
        print(f"{key:48s} {values[key]:.6g}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
