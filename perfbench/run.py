"""mpisos benchmark: time to certified outer bounds, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sparse-network --seed 0 --seconds 25 --trace 0

One process runs one workload serially: one relaxation in flight at a time,
closed loop, one client. It repeats whole sweeps of the workload until
``--seconds`` have passed (so at least one), checks every output,
and prints one line per cell, one per metric (name, value, unit) and, last,
one JSON object. With ``--trace 0`` the JSON holds the end-to-end metrics;
with ``--trace 1`` a traced sweep follows and the JSON holds the per-layer
metrics, whose spans go to ``.perfbench_out/`` in the checkout.

The BLAS/OpenMP thread count is pinned before numpy is imported.
"""

from __future__ import annotations

import os
import sys

THREADS = 1  # steadiest on a shared machine; never above nproc
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = str(THREADS)

import argparse
import json
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "peak_rss_mb": "MB",
}
CELL_NAMES = (
    "n8-ts-maximal",
    "n8-ts-min-degree",
    "n8-ss",
    "n10-ts",
    "extlorenz-d3-fd",
    "lorenz-d3-fd",
    "n20-ts",
    "n16-ss",
)
# layers reported by total time (``<layer>.s``), and those whose calls are counted
TIMED_LAYERS = (
    "chain", "symmetry", "recover", "export", "standardize", "presolve",
    "equilibrate", "trace_bound", "schur", "factor", "factor_ext",
    "kkt_solve", "nt_scaling", "step_length", "max_step", "apply_A", "apply_At",
)
COUNTED_LAYERS = (
    "chain", "schur", "factor", "factor_ext", "kkt_solve", "nt_scaling",
    "step_length", "apply_A", "apply_At",
)
SIZE_METRICS = ("equalities", "free", "blocks", "max_block", "block_mass")
PER_LAYER = {
    **{f"{layer}.s": "s" for layer in TIMED_LAYERS},
    **{f"{layer}.calls": "count" for layer in COUNTED_LAYERS},
    "assemble.self_s": "s",
    "ipm.self_s": "s",
    "ipm.iterations": "count",
    "solve.attempts": "1/solve",
    "export.bytes": "B",
    "kkt.bytes": "B",
    **{f"assemble.{name}": "count" for name in SIZE_METRICS},
    **{f"cell.{name}.s": "s" for name in CELL_NAMES},
    "fail_frac": "ratio",
    "trace.overhead_s": "s",
    "trace.missing_spans": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reference",
        type=Path,
        default=Path(__file__).resolve().with_name("reference.json"),
        help="reference outputs to check against (default: %(default)s)",
    )
    # internal: time one set-up in a fresh process, started at this epoch
    # time, building the random networks of the given network seeds
    parser.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--networks", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def format_networks(networks: dict[int, list[int]]) -> str:
    """``{8: [0, 1], 10: [0, 20]}`` as ``8=0:1,10=0:20``."""
    return ",".join(
        f"{n}=" + ":".join(map(str, seeds)) for n, seeds in networks.items()
    )


def parse_networks(text: str) -> dict[int, list[int]]:
    pairs = (item.split("=") for item in text.split(",") if item)
    return {int(n): [int(t) for t in seeds.split(":")] for n, seeds in pairs}


def setup_seconds(args, networks: dict[int, list[int]]) -> list[float]:
    """Set-up time of fresh processes: imports plus building the models.

    The network seeds are picked once, here, and handed to every probe, so
    that the benchmark's own search for them is not timed.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--networks", format_networks(networks),
            "--setup-probe", repr(time.time()),
        ]
        done = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def best_times(sweeps) -> dict[str, float]:
    """Fastest time of each cell over the sweeps, by cell label."""
    best: dict[str, float] = {}
    for sweep in sweeps:
        for r in sweep:
            best[r.label] = min(best.get(r.label, r.seconds), r.seconds)
    return best


def per_layer_metrics(tracer, traced, untraced, fail_frac):
    """Per-layer metrics from the traced sweep; cell times and the tracing
    overhead against the fastest untraced times."""
    from tracing import layer_times

    total, own, calls = layer_times(tracer.spans)
    values = {f"{layer}.s": total.get(layer, 0.0) for layer in TIMED_LAYERS}
    values.update({f"{layer}.calls": calls.get(layer, 0) for layer in COUNTED_LAYERS})
    values["assemble.self_s"] = own.get("assemble", 0.0)
    values["ipm.self_s"] = own.get("ipm", 0.0)
    values["ipm.iterations"] = tracer.ipm_iterations
    values["solve.attempts"] = (
        calls["ipm"] / calls["solve"] if calls.get("solve") else 0.0
    )
    built = [r for r in traced if r.m is not None]
    solved = [r for r in built if not r.cell.export]
    values["export.bytes"] = sum(r.export_bytes for r in traced)
    # computed, not measured: the dense Schur matrix and augmented KKT matrix
    # of the largest assembled problem, 8 * (m^2 + (m + f)^2) bytes
    values["kkt.bytes"] = max(
        (8 * (r.m**2 + (r.m + r.f) ** 2) for r in solved), default=0
    )
    values["assemble.equalities"] = sum(r.m for r in built)
    values["assemble.free"] = sum(r.f for r in built)
    values["assemble.blocks"] = sum(r.blocks for r in built)
    values["assemble.max_block"] = max((r.max_block for r in built), default=0)
    values["assemble.block_mass"] = sum(r.block_mass for r in built)
    best = best_times(untraced)
    for name in CELL_NAMES:
        values[f"cell.{name}.s"] = sum(
            best[r.label] for r in untraced[0] if r.cell.name == name
        )
    values["fail_frac"] = fail_frac
    values["trace.overhead_s"] = sum(r.seconds for r in traced) - sum(best.values())
    values["trace.missing_spans"] = len(tracer.missing)
    return values


def write_trace(args, tracer, header: dict) -> Path:
    from tracing import span_records

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        record = {**header, "missing": tracer.missing, **span_records(tracer.spans)}
        json.dump(record, fh)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mpisos" / "__init__.py").is_file():
        print(f"error: no mpisos sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(sorted(wl.WORKLOADS))}",
            file=sys.stderr,
        )
        return 2
    if args.setup_probe is not None:
        wl.build_instances(args.workload, parse_networks(args.networks))
        print(f"{time.time() - args.setup_probe:.6f}")
        return 0

    import numpy
    import scipy

    header = {
        "workload": args.workload,
        "seed": args.seed,
        "threads": THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }
    print(" ".join(f"{k}={v}" for k, v in header.items()))
    networks = wl.pick_networks(args.workload, args.seed)
    print("networks " + (format_networks(networks) or "none"))
    setup = [] if args.trace else setup_seconds(args, networks)
    instances = wl.build_instances(args.workload, networks)
    references = wl.load_references(args.reference)
    # lazy imports and first-call set-up inside numpy/scipy, untimed
    wl.run_sweep(wl.build_instances("tiny", {}), {})

    sweeps = []
    started = time.perf_counter()
    while not sweeps or time.perf_counter() - started < args.seconds:
        sweeps.append(wl.run_sweep(instances, references))
    if args.trace:
        from tracing import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
        try:
            traced = wl.run_sweep(instances, references, tracer)
        finally:
            tracer.restore()
        sweeps.append(traced)

    for r in sweeps[0]:
        verdict = "ok" if not r.failed else "FAIL: " + "; ".join(r.problems)
        objective = "-" if r.objective is None else f"{r.objective:.12g}"
        print(
            f"cell {r.label} {r.status} obj={objective} it={r.iterations} "
            f"m={r.m} f={r.f} blocks={r.blocks} max_block={r.max_block} "
            f"{r.seconds:.3f} s {verdict}"
        )
    all_results = [r for sweep in sweeps for r in sweep]
    attempted = len(all_results)
    failed = sum(r.failed for r in all_results)
    correct = not any(r.wrong for r in all_results)
    untraced = sweeps[:-1] if args.trace else sweeps
    sweep_times = [sum(r.seconds for r in sweep) for sweep in untraced]
    print(f"sweeps {len(sweep_times)}: " + " ".join(f"{t:.3f}" for t in sweep_times))
    print(f"fail_frac {failed / attempted:.6g} ratio ({failed}/{attempted} cells)")

    if args.trace:
        values = per_layer_metrics(tracer, traced, untraced, failed / attempted)
        units = PER_LAYER
        path = write_trace(args, tracer, header)
        print(f"trace {len(tracer.spans)} spans -> {path.relative_to(ROOT)}")
        print("missing spans: " + (", ".join(tracer.missing) or "none"))
    else:
        values = {
            "setup_s": statistics.median(setup),
            "sweep_s": sum(best_times(untraced).values()),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
        print("setup samples: " + " ".join(f"{t:.3f}" for t in setup))
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
