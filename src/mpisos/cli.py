"""Command line front end.

Subcommands and the flags each takes
------------------------------------
run           solve one relaxation instance and print a report;
              --d --s --l --mode --extension --beta, --out-csv,
              --export-sdpa, --grid, --resolution, --dump-chains
compare       sweep degrees and block modes, tabulate optima;
              --d (a comma list) --s --l --extension --beta, --modes,
              --jobs, --out-csv
symmetries    print the sign-symmetry basis and block partition sizes; --d
random-model  generate a cubic interaction network problem file; --out
export-sdpa   write one instance in SDPA sparse format;
              --d --s --l --mode --extension --beta, --out

Problem files are JSON objects with fields ``variables`` (list of names),
``dynamics`` (one polynomial string per variable), optional ``constraints``
(polynomial strings, default: per-axis box polynomials), optional ``box``
(per-variable [lo, hi], default: [-1, 1] per axis), and an optional
``config`` block with any of d, s, l, beta, extension, mode.  Flags override
file config values, which override the defaults of ``RelaxationConfig``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .poly import (
    DynamicalSystem,
    PolynomialSyntaxError,
    parse_polynomial,
)
from .relax import Box, SdpProblem, assemble, grid_counts, multiplier_blocks, outer_approx_grid, recover
from .sdp import SdpSolution, export_sdpa, solve
from .sparsity import (
    EXTENSIONS,
    MODES,
    RelaxationConfig,
    build_chain,
    chain_dump_text,
)
from .symmetry import sign_symmetries
from .systems import random_network_model

RUN_CSV_HEADER = (
    "system",
    "mode",
    "d",
    "s",
    "l",
    "beta",
    "extension",
    "status",
    "objective",
    "seconds",
    "iterations",
    "lie_blocks",
    "w_blocks",
    "wv_blocks",
    "v_coeffs",
    "w_coeffs",
    "equalities",
    "primal_infeasibility",
    "dual_infeasibility",
    "relative_gap",
)

COMPARE_CSV_HEADER = (
    "system",
    "d",
    "mode",
    "s",
    "l",
    "status",
    "objective",
    "seconds",
    "iterations",
    "max_block",
    "blocks",
    "error",
)

_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(RelaxationConfig))


class CliError(Exception):
    """User-facing failure with an actionable message."""


@dataclasses.dataclass(frozen=True)
class LoadedProblem:
    name: str
    variables: tuple[str, ...]
    system: DynamicalSystem
    box: Box
    file_config: dict


def load_problem(path: str) -> LoadedProblem:
    """Read and validate a problem file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read problem file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"problem file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise CliError(f"problem file {path} must contain a JSON object")

    variables = raw.get("variables")
    if not isinstance(variables, list) or not all(
        isinstance(v, str) for v in variables
    ) or not variables:
        raise CliError('"variables" must be a nonempty list of names')
    names = tuple(variables)
    if len(set(names)) != len(names):
        raise CliError('"variables" contains a duplicate name')
    n = len(names)

    def parse(text, entry: str):
        if not isinstance(text, str):
            raise CliError(f"{entry}: expected a polynomial string, got {text!r}")
        try:
            return parse_polynomial(text, names)
        except PolynomialSyntaxError as exc:
            raise CliError(f"{entry}: {exc}") from exc

    dynamics = raw.get("dynamics")
    if not isinstance(dynamics, list) or len(dynamics) != n:
        raise CliError('"dynamics" must list one polynomial per variable')
    field = [parse(text, f"dynamics entry for {name}") for name, text in zip(names, dynamics)]

    box_raw = raw.get("box")
    if box_raw is not None and (not isinstance(box_raw, list) or len(box_raw) != n):
        raise CliError('"box" must list one [lo, hi] pair per variable')
    try:
        box = Box.symmetric(n) if box_raw is None else Box.from_bounds(box_raw)
        # finite bounds can still overflow the quadratic's coefficients
        constraints = box.constraints()
    except (TypeError, ValueError) as exc:
        raise CliError(f'invalid "box": {exc}') from exc

    constraints_raw = raw.get("constraints")
    if constraints_raw is not None:
        if not isinstance(constraints_raw, list) or not constraints_raw:
            raise CliError('"constraints" must be a nonempty list of polynomials')
        constraints = tuple(parse(text, f"constraints[{k}]") for k, text in enumerate(constraints_raw))

    config = raw.get("config", {})
    if not isinstance(config, dict):
        raise CliError('"config" must be an object')
    unknown = sorted(set(config) - set(_CONFIG_KEYS))
    if unknown:
        raise CliError(f'unknown config key(s) {unknown}; valid: {_CONFIG_KEYS}')

    name = raw.get("name") or path
    system = DynamicalSystem(field=tuple(field), constraints=constraints)
    return LoadedProblem(
        name=str(name),
        variables=names,
        system=system,
        box=box,
        file_config=dict(config),
    )


def resolve_config(loaded: LoadedProblem, args: argparse.Namespace) -> RelaxationConfig:
    """Merge flag and file settings, flags winning; RelaxationConfig
    supplies the defaults of what neither sets."""
    merged = dict(loaded.file_config)
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if "d" not in merged:
        raise CliError(
            "no relaxation degree given: pass --d or set d in the problem "
            'file "config" block'
        )
    return _checked(RelaxationConfig, **merged)


# -- run ---------------------------------------------------------------------


def run_report(
    name: str, problem: SdpProblem, solution: SdpSolution, seconds: float
) -> tuple[str, tuple]:
    """The printed report and the RUN_CSV_HEADER row of one solved instance."""
    cfg, meta = problem.config, problem.metadata
    dims = {
        cert: sorted((b.dimension for b in problem.blocks if b.certificate == cert), reverse=True)
        for cert in "abc"
    }
    sizes = {cert: "+".join(map(str, d)) or "-" for cert, d in dims.items()}
    v_coeffs = sum(kind == "v" for kind, _ in problem.free_labels)
    counts = (v_coeffs, len(problem.free_labels) - v_coeffs, len(problem.row_labels))
    residual_keys = RUN_CSV_HEADER[-3:]
    residuals = [f"{solution.residuals.get(key, float('nan')):.3e}" for key in residual_keys]

    lines = [
        f"system: {name}",
        f"config: mode={cfg.mode} 2d={2 * cfg.d} s={cfg.s} l={cfg.l} "
        f"beta={cfg.beta:g} extension={cfg.extension}",
    ]
    if "chain_supports" in meta:
        for chain_name, chain_sizes in zip("vw", meta["chain_supports"]):
            tail = "stabilized" if meta.get(f"{chain_name}_stabilized") else "open"
            lines.append(f"{chain_name}-chain sizes: {list(chain_sizes)} ({tail})")
    if "symmetry_rank" in meta:
        vecs = ", ".join(str(v) for v in meta.get("symmetry_basis", ()))
        lines.append(f"sign-symmetry rank {meta['symmetry_rank']}: {vecs}")
    for cert, label in zip("abc", ("lie", "w", "wv")):
        lines.append(f"{label} blocks ({len(dims[cert])}): {sizes[cert]}")
    lines += [
        "free coefficients: v={} w={}; equalities: {}".format(*counts),
        f"status: {solution.status}",
        f"objective: {solution.objective:.9g}",
        f"dual objective: {solution.dual_objective:.9g}",
        f"iterations: {solution.iterations}; wall time: {seconds:.2f}s",
    ]
    lines += [f"{key}: {value}" for key, value in zip(residual_keys, residuals)]

    row = (
        name, cfg.mode, cfg.d, cfg.s, cfg.l, cfg.beta, cfg.extension,
        solution.status, f"{solution.objective:.12g}", f"{seconds:.3f}",
        solution.iterations, *sizes.values(), *counts, *residuals,
    )
    return "\n".join(lines), row


def _checked(call, *args, **kwargs):
    """``call(*args, **kwargs)``, with a ValueError it raises, such as
    assembly's or the solver's rejection of non-finite data, turned into a
    CliError."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _append_csv(path: str, header: tuple, rows: list[tuple]) -> None:
    try:
        with open(path, "a", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            if fh.tell() == 0:  # a new or empty file
                writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def cmd_run(args: argparse.Namespace) -> int:
    loaded = load_problem(args.problem)
    # the grid's counts depend only on the box, so a bad --resolution fails
    # here rather than after the solve
    counts = _grid_counts(loaded, args.resolution) if args.grid else None
    config = resolve_config(loaded, args)
    problem = _checked(assemble, loaded.system, loaded.box, config)

    if args.dump_chains:
        chain = build_chain(
            loaded.system,
            config.d,
            s=config.s,
            l=config.l,
            extension=config.extension,
        )
        print(chain_dump_text(chain, loaded.variables))

    t0 = time.perf_counter()
    solution = _checked(solve, problem)
    seconds = time.perf_counter() - t0
    text, row = run_report(loaded.name, problem, solution, seconds)
    print(text)

    cert = recover(problem, solution.block_values, solution.free_values)
    for flag in cert.flags:
        print(f"warning: {flag}", file=sys.stderr)

    if args.out_csv:
        _append_csv(args.out_csv, RUN_CSV_HEADER, [row])
    if args.export_sdpa:
        _emit(args.export_sdpa, export_sdpa(problem))
    if args.grid:
        _write_grid(None if args.grid == "-" else args.grid, loaded, cert.w, counts)
    return 0


def _emit(path: str | None, text: str) -> None:
    """Write ``text`` to the file at ``path``, or to stdout when it is None."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


# -- compare -----------------------------------------------------------------


def _compare_cell(payload: tuple) -> tuple:
    """One sweep cell; module level so process pools can pickle it."""
    path, name, config = payload
    head = (name, config.d, config.mode, config.s, config.l)
    try:
        loaded = load_problem(path)
        problem = assemble(loaded.system, loaded.box, config)
        t0 = time.perf_counter()
        solution = solve(problem)
        seconds = time.perf_counter() - t0
        dims = sorted((b.dimension for b in problem.blocks), reverse=True)
        return head + (
            solution.status,
            f"{solution.objective:.12g}",
            f"{seconds:.3f}",
            solution.iterations,
            dims[0],
            len(dims),
            "",
        )
    except Exception as exc:
        return head + ("error", "", "", "", "", "", str(exc))


def cmd_compare(args: argparse.Namespace) -> int:
    loaded = load_problem(args.problem)
    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    # without --d the file's d (or the missing-degree error) applies
    cells = [
        (
            args.problem,
            loaded.name,
            resolve_config(
                loaded, argparse.Namespace(**{**vars(args), "d": d, "mode": mode})
            ),
        )
        for d in args.d or (None,)
        for mode in modes
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_compare_cell, cells))
    else:
        rows = [_compare_cell(cell) for cell in cells]

    print(_aligned_table(COMPARE_CSV_HEADER, rows))
    failures = [row for row in rows if row[-1]]
    for row in failures:
        print(
            f"warning: cell d={row[1]} mode={row[2]} failed: {row[-1]}",
            file=sys.stderr,
        )
    if args.out_csv:
        _append_csv(args.out_csv, COMPARE_CSV_HEADER, rows)
    return 1 if len(failures) == len(rows) else 0


def _aligned_table(header: tuple, rows: list[tuple]) -> str:
    table = [tuple(str(v) for v in header)] + [
        tuple(str(v) for v in row) for row in rows
    ]
    widths = [max(len(row[k]) for row in table) for k in range(len(header))]
    return "\n".join(
        "  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() for row in table
    )


# -- symmetries --------------------------------------------------------------


def cmd_symmetries(args: argparse.Namespace) -> int:
    loaded = load_problem(args.problem)
    config = resolve_config(loaded, args)
    group = sign_symmetries(loaded.system, config.d)
    print(f"sign-symmetry group rank: {group.rank}")
    for vec in group.vectors:
        print("  r = " + "".join(str(b) for b in vec))
    degrees = (0,) + loaded.system.constraint_degrees
    for j, (dj, blocks) in enumerate(zip(degrees, multiplier_blocks(loaded.system, config.d, group))):
        sizes = sorted(map(len, blocks), reverse=True)
        label = "1" if j == 0 else f"g{j}"
        print(f"multiplier {label} (degree {dj}): block sizes {sizes}")
    return 0


# -- random-model ------------------------------------------------------------


def cmd_random_model(args: argparse.Namespace) -> int:
    if args.n < 5:
        raise CliError("n must be at least 5 so the graph has n-4 >= 1 edges")
    model = _checked(random_network_model, args.n, args.seed)
    names = model.variables
    payload = {
        "name": model.name,
        "variables": list(names),
        "dynamics": [p.to_string(names) for p in model.system.field],
        "constraints": [p.to_string(names) for p in model.system.constraints],
        "box": [[lo, hi] for lo, hi in model.bounds],
        "metadata": {
            "seed": model.seed,
            "edges": [list(e) for e in model.edges],
            "interaction_matrix": [list(row) for row in model.matrix],
            "rejected_draws": model.attempts - 1,
        },
    }
    _emit(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


# -- export-sdpa -------------------------------------------------------------


def cmd_export_sdpa(args: argparse.Namespace) -> int:
    loaded = load_problem(args.problem)
    problem = _checked(assemble, loaded.system, loaded.box, resolve_config(loaded, args))
    _emit(args.out, _checked(export_sdpa, problem))
    return 0


def _grid_counts(loaded: LoadedProblem, resolution) -> tuple[int, ...]:
    """Per-axis counts from ``--resolution``: one value covers every axis."""
    res = resolution[0] if len(resolution) == 1 else resolution
    return _checked(grid_counts, res, loaded.box.dim)


def _write_grid(path: str | None, loaded: LoadedProblem, w, counts) -> None:
    points, values = outer_approx_grid(w, loaded.box, counts)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(list(loaded.variables) + ["w"])
    for point, value in zip(points, values):
        writer.writerow([f"{x:.12g}" for x in point] + [f"{value:.12g}"])
    _emit(path, buf.getvalue())


# -- argument plumbing -------------------------------------------------------


def _int_list(text: str) -> tuple[int, ...]:
    """Parse a comma-separated integer list (an argparse ``type``)."""
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


_CONFIG_FLAGS = {
    "d": {"type": int, "help": "relaxation half-degree"},
    "s": {"type": int, "help": "v-chain sparse order"},
    "l": {"type": int, "help": "w-chain sparse order"},
    "mode": {"choices": MODES, "help": "block structure mode"},
    "extension": {"choices": EXTENSIONS, "help": "chordal extension rule"},
    "beta": {"type": float, "help": "discount rate"},
}


def _add_config_flags(parser: argparse.ArgumentParser, keys=tuple(_CONFIG_FLAGS)) -> None:
    for key in keys:
        parser.add_argument(f"--{key}", default=None, **_CONFIG_FLAGS[key])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpisos",
        description="Semidefinite outer approximations of maximum "
        "positively invariant sets for polynomial dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one relaxation instance")
    p_run.add_argument("problem", help="problem file (JSON)")
    _add_config_flags(p_run)
    p_run.add_argument("--out-csv", default=None, help="append a CSV report row")
    p_run.add_argument(
        "--export-sdpa", default=None, help="also write the instance in SDPA format"
    )
    p_run.add_argument(
        "--grid", default=None, help="write the outer-approximation grid CSV here"
    )
    p_run.add_argument(
        "--resolution",
        type=_int_list,
        default="65",
        help="grid points per axis (int or comma list)",
    )
    p_run.add_argument(
        "--dump-chains",
        action="store_true",
        help="print the support chain iterates before solving",
    )
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="sweep degrees and modes")
    p_cmp.add_argument("problem", help="problem file (JSON)")
    p_cmp.add_argument(
        "--d",
        type=_int_list,
        default=None,
        help="comma-separated relaxation half-degrees",
    )
    _add_config_flags(p_cmp, ("s", "l", "extension", "beta"))
    p_cmp.add_argument(
        "--modes", default="ts,ss,fd", help="comma-separated modes to compare"
    )
    p_cmp.add_argument("--jobs", type=int, default=1, help="parallel cell limit")
    p_cmp.add_argument("--out-csv", default=None, help="append CSV rows here")
    p_cmp.set_defaults(func=cmd_compare)

    p_sym = sub.add_parser(
        "symmetries", help="print sign symmetries and block partitions"
    )
    p_sym.add_argument("problem", help="problem file (JSON)")
    _add_config_flags(p_sym, ("d",))
    p_sym.set_defaults(func=cmd_symmetries)

    p_rnd = sub.add_parser("random-model", help="generate a network problem file")
    p_rnd.add_argument("n", type=int, help="number of variables (at least 5)")
    p_rnd.add_argument("seed", type=int, help="RNG seed, recorded in the file")
    p_rnd.add_argument("--out", default=None, help="output path (default stdout)")
    p_rnd.set_defaults(func=cmd_random_model)

    p_exp = sub.add_parser("export-sdpa", help="write SDPA sparse format")
    p_exp.add_argument("problem", help="problem file (JSON)")
    _add_config_flags(p_exp)
    p_exp.add_argument("--out", default=None, help="output path (default stdout)")
    p_exp.set_defaults(func=cmd_export_sdpa)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
