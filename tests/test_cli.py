"""Command line surface: problem files, config precedence, subcommand
behavior, and the self-consistency invariants of emitted artifacts."""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import pytest

from sdpa_reader import entry_problem, fold_free_pairs, parse_sdpa

from mpisos.cli import (
    COMPARE_CSV_HEADER,
    RUN_CSV_HEADER,
    CliError,
    load_problem,
    main,
    resolve_config,
)
from mpisos.relax import assemble
from mpisos.sdp import solve_block_problem

GOLDEN = Path(__file__).parent / "golden"

LORENZ = {
    "name": "lorenz",
    "variables": ["x1", "x2", "x3"],
    "dynamics": ["10*x2 - 10*x1", "28*x1 - x1*x3 - x2", "x1*x2 - 8/3*x3"],
    "config": {"d": 2},
}

CUBIC = {
    "name": "coupled-cubic",
    "variables": ["x1", "x2", "x3"],
    "dynamics": [
        "x1^3 + x1*x2^2 - 1/4*x1",
        "x2^3 + x2*x3^2 - 1/4*x2",
        "x2^2*x3 + x3^3 - 1/4*x3",
    ],
}


@pytest.fixture
def lorenz_file(tmp_path):
    path = tmp_path / "lorenz.json"
    path.write_text(json.dumps(LORENZ))
    return str(path)


@pytest.fixture
def cubic_file(tmp_path):
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(CUBIC))
    return str(path)


class TestProblemFiles:
    def test_loads_and_defaults(self, lorenz_file):
        loaded = load_problem(lorenz_file)
        assert loaded.name == "lorenz"
        assert loaded.variables == ("x1", "x2", "x3")
        assert loaded.box.bounds == ((-1.0, 1.0),) * 3
        # default constraints are the per-axis box quadratics 1 - x_i^2
        for i, p in enumerate(loaded.system.constraints):
            e2 = tuple(2 if k == i else 0 for k in range(3))
            assert p.coefficient(e2) == -1.0
            assert p.coefficient((0, 0, 0)) == 1.0

    def test_asymmetric_box_constraint(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(
            json.dumps(
                {
                    "variables": ["y"],
                    "dynamics": ["-y"],
                    "box": [[0.0, 2.0]],
                }
            )
        )
        loaded = load_problem(str(path))
        p = loaded.system.constraints[0]
        # (2 - y)(y - 0) = 2y - y^2
        assert p.coefficient((2,)) == -1.0
        assert p.coefficient((1,)) == 2.0
        assert p.coefficient((0,)) == 0.0

    @pytest.mark.parametrize(
        "payload,fragment",
        [
            ({"variables": ["x"], "dynamics": []}, "one polynomial per"),
            ({"variables": [], "dynamics": []}, "variables"),
            ({"variables": ["x", "x"], "dynamics": ["x", "x"]}, "duplicate"),
            (
                {"variables": ["x"], "dynamics": ["x +"]},
                "dynamics entry for x",
            ),
            (
                {"variables": ["x"], "dynamics": ["x"], "box": [[1, -1]]},
                "box",
            ),
            (
                {"variables": ["x"], "dynamics": ["x"], "config": {"dd": 3}},
                "unknown config key",
            ),
            (
                {"variables": ["x"], "dynamics": ["x"], "constraints": []},
                "constraints",
            ),
            # json.dumps writes inf as Infinity, which loads back as inf, as 1e400 does
            (
                {"variables": ["x"], "dynamics": ["x"], "box": [[-1, float("inf")]]},
                "box",
            ),
            ({"variables": ["x"], "dynamics": ["x"], "box": [["-1", 1]]}, "box"),
            ({"variables": ["x"], "dynamics": ["x"], "box": [[False, True]]}, "box"),
            # finite bounds whose product overflows the box quadratic
            ({"variables": ["x"], "dynamics": ["x"], "box": [[-1e200, 1e200]]}, "box"),
            ({"variables": ["x"], "dynamics": ["-1e400*x"]}, "dynamics entry for x"),
            (
                {"variables": ["x"], "dynamics": ["1e400*x - 1e400*x"]},
                "dynamics entry for x",
            ),
            ({"variables": ["x"], "dynamics": ["y"]}, "dynamics entry for x"),
            # entries that are not strings, which the tokenizer cannot read
            ({"variables": ["x", "y"], "dynamics": [1, "-y"]}, "dynamics entry for x"),
            ({"variables": ["x"], "dynamics": ["-x"], "constraints": [None]}, r"constraints\[0\]"),
        ],
    )
    def test_rejects_bad_files(self, tmp_path, payload, fragment):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CliError, match=fragment):
            load_problem(str(path))

    @pytest.mark.parametrize(
        "box,dynamics",
        [
            ("[[-1, 1e400], [-1, 1]]", '["-x", "-y"]'),
            ("[[-1, 1], [-1, 1]]", '["-1e400*x", "-y"]'),
            ("[[-1, 1], [-1, 1]]", '["1e400*x - 1e400*x", "-y"]'),
        ],
        ids=["bound", "coefficient", "cancelling"],
    )
    @pytest.mark.parametrize("command", ["run", "export-sdpa"])
    def test_non_finite_numbers_are_actionable(self, tmp_path, capsys, box, dynamics, command):
        path = tmp_path / "inf.json"
        path.write_text(
            f'{{"variables": ["x", "y"], "dynamics": {dynamics}, "box": {box}, '
            '"config": {"d": 1}}'
        )
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "finite" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["run", "export-sdpa"])
    def test_overflowing_box_moments_are_actionable(self, tmp_path, capsys, command):
        # finite bounds whose moments pass the float range (x^2 on
        # [-1, 1e300] overflows): assembly rejects them
        path = tmp_path / "huge.json"
        path.write_text(
            '{"variables": ["x", "y"], "dynamics": ["-x", "-y"], '
            '"box": [[-1, 1e300], [-1, 1]], "config": {"d": 1}}'
        )
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "float range" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["run", "export-sdpa"])
    def test_overflowing_lie_coefficients_are_actionable(self, tmp_path, capsys, command):
        # every number in the file is finite, but the Lie coefficient
        # 2 * 1e308 of x^2 passes the float range; assembly rejects it,
        # with no RuntimeWarning (which pytest turns into an error)
        path = tmp_path / "lie.json"
        path.write_text(
            '{"variables": ["x", "y"], "dynamics": ["1e308*x", "-y"], '
            '"box": [[-1, 1], [-1, 1]], "config": {"d": 1}}'
        )
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Lie derivative" in captured.err and "float range" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["run", "export-sdpa"])
    def test_solver_rejection_is_actionable(self, lorenz_file, monkeypatch, capsys, command):
        # a ValueError from the solver or the SDPA export, such as their
        # rejection of non-finite data, ends in an error message
        def reject(problem):
            raise ValueError("B holds NaN or inf")

        stage = {"run": "solve", "export-sdpa": "export_sdpa"}[command]
        monkeypatch.setattr(f"mpisos.cli.{stage}", reject)
        assert main([command, lorenz_file]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: B holds NaN or inf\n"

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(CliError, match="cannot read"):
            load_problem(str(tmp_path / "absent.json"))
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(CliError, match="not valid JSON"):
            load_problem(str(path))


class TestConfigPrecedence:
    def test_flags_beat_file_beat_defaults(self, lorenz_file, capsys):
        assert main(["run", lorenz_file, "--s", "2", "--l", "2"]) == 0
        out = capsys.readouterr().out
        # d comes from the file, s and l from flags, the rest from defaults
        assert "mode=ts 2d=4 s=2 l=2 beta=1 extension=maximal" in out

    def test_missing_degree_is_actionable(self, cubic_file, capsys):
        assert main(["run", cubic_file]) == 2
        err = capsys.readouterr().err
        assert "no relaxation degree" in err and "--d" in err

    def test_degree_too_small_is_actionable(self, cubic_file, capsys):
        assert main(["run", cubic_file, "--d", "1"]) == 2
        assert "too small" in capsys.readouterr().err


class TestRun:
    def test_report_and_csv(self, lorenz_file, tmp_path, capsys):
        out_csv = tmp_path / "report.csv"
        code = main(
            [
                "run",
                lorenz_file,
                "--s",
                "2",
                "--l",
                "2",
                "--out-csv",
                str(out_csv),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "status: optimal" in out
        assert "objective: 4.55401" in out
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == RUN_CSV_HEADER
        record = dict(zip(RUN_CSV_HEADER, rows[1]))
        assert record["system"] == "lorenz"
        assert record["mode"] == "ts"
        assert float(record["objective"]) == pytest.approx(4.554010, rel=1e-5)
        assert record["lie_blocks"].startswith("6+4")

    @pytest.mark.parametrize("mode", ["ts", "ss"])
    def test_report_lines_pinned(self, lorenz_file, tmp_path, capsys, mode):
        # every line label, and each field that does not depend on floating
        # point results, as the report printed them before its rewrite
        out_csv = tmp_path / "report.csv"
        argv = ["run", lorenz_file, "--s", "2", "--mode", mode, "--out-csv", str(out_csv)]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        structure = {
            "ts": [
                "v-chain sizes: [12, 19, 19] (stabilized)",
                "w-chain sizes: [19, 19] (stabilized)",
            ],
            "ss": ["sign-symmetry rank 1: (1, 1, 0)"],
        }[mode]
        fixed = [
            "system: lorenz",
            f"config: mode={mode} 2d=4 s=2 l=1 beta=1 extension=maximal",
            *structure,
            "lie blocks (8): 6+4+2+2+2+2+2+2",
            "w blocks (8): 6+4+2+2+2+2+2+2",
            "wv blocks (8): 6+4+2+2+2+2+2+2",
            "free coefficients: v=10 w=19; equalities: 57",
            "status: optimal",
        ]
        assert lines[: len(fixed)] == fixed
        labels = [
            r"objective: \S+",
            r"dual objective: \S+",
            r"iterations: \d+; wall time: \d+\.\d\ds",
            r"primal_infeasibility: \d\.\d{3}e[-+]\d\d",
            r"dual_infeasibility: \d\.\d{3}e[-+]\d\d",
            r"relative_gap: \S+",
        ]
        assert len(lines) == len(fixed) + len(labels)
        for line, pattern in zip(lines[len(fixed) :], labels):
            assert re.fullmatch(pattern, line), line
        with open(out_csv, newline="") as fh:
            header, row = csv.reader(fh)
        assert tuple(header) == RUN_CSV_HEADER
        record = dict(zip(header, row))
        blocks = "6+4+2+2+2+2+2+2"
        assert {k: v for k, v in record.items() if k not in _FLOAT_COLUMNS} == {
            "system": "lorenz",
            "mode": mode,
            "d": "2",
            "s": "2",
            "l": "1",
            "beta": "1.0",
            "extension": "maximal",
            "status": "optimal",
            "lie_blocks": blocks,
            "w_blocks": blocks,
            "wv_blocks": blocks,
            "v_coeffs": "10",
            "w_coeffs": "19",
            "equalities": "57",
        }

    def test_csv_rows_share_one_header(self, lorenz_file, tmp_path, capsys):
        out_csv = tmp_path / "report.csv"
        out_csv.write_text("")  # an empty file gets the header too
        for mode in ("ts", "ss"):
            assert main(["run", lorenz_file, "--mode", mode, "--out-csv", str(out_csv)]) == 0
        capsys.readouterr()
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == RUN_CSV_HEADER
        assert [row[1] for row in rows[1:]] == ["ts", "ss"]

    def test_dump_chains(self, lorenz_file, capsys):
        assert main(["run", lorenz_file, "--s", "2", "--dump-chains"]) == 0
        out = capsys.readouterr().out
        assert "v[2]: 19 exponents" in out
        assert "v stabilized: True" in out
        assert "monomials in v[last]:" in out

    def test_exported_sdpa_resolves_to_same_objective(
        self, lorenz_file, tmp_path, capsys
    ):
        sdpa_path = tmp_path / "lorenz.dat-s"
        assert (
            main(
                [
                    "run",
                    lorenz_file,
                    "--s",
                    "2",
                    "--export-sdpa",
                    str(sdpa_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        reported = float(out.split("objective: ")[1].split("\n")[0])
        folded = fold_free_pairs(*parse_sdpa(sdpa_path.read_text()))
        resolved = solve_block_problem(entry_problem(*folded))
        assert resolved.objective == pytest.approx(reported, rel=1e-6, abs=1e-6)

    def test_grid_artifact(self, lorenz_file, tmp_path):
        grid_path = tmp_path / "grid.csv"
        code = main(
            [
                "run",
                lorenz_file,
                "--s",
                "2",
                "--grid",
                str(grid_path),
                "--resolution",
                "9",
            ]
        )
        assert code == 0
        with open(grid_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x1", "x2", "x3", "w"]
        assert 0 < len(rows) - 1 <= 9**3
        for row in rows[1:]:
            assert float(row[3]) >= 1.0
            assert all(-1.0 <= float(v) <= 1.0 for v in row[:3])


_FLOAT_COLUMNS = (
    "objective",
    "seconds",
    "iterations",
    "primal_infeasibility",
    "dual_infeasibility",
    "relative_gap",
)


class _Empty:
    """Namespace stand-in with no flag overrides."""

    def __getattr__(self, name):
        return None


class TestCompare:
    def test_table_modes_and_invariant(self, lorenz_file, tmp_path, capsys):
        out_csv = tmp_path / "table.csv"
        code = main(
            [
                "compare",
                lorenz_file,
                "--d",
                "2",
                "--modes",
                "ts,ss,fd",
                "--s",
                "2",
                "--out-csv",
                str(out_csv),
            ]
        )
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == COMPARE_CSV_HEADER
        records = [dict(zip(COMPARE_CSV_HEADER, r)) for r in rows[1:]]
        assert [(r["d"], r["mode"]) for r in records] == [
            ("2", "ts"),
            ("2", "ss"),
            ("2", "fd"),
        ]
        ts, ss, fd = (float(r["objective"]) for r in records)
        assert ss == pytest.approx(fd, rel=1e-4)
        assert ts >= ss - 1e-6

    def test_cell_failures_do_not_abort(self, cubic_file, capsys):
        # d=1 is below the cubic field's minimum degree; d=2 succeeds
        code = main(
            ["compare", cubic_file, "--d", "1,2", "--modes", "ts"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "failed" in captured.err
        lines = [l for l in captured.out.splitlines() if l.strip()]
        assert len(lines) == 3
        assert "error" in lines[1] or "too small" in lines[1]

    def test_degree_and_orders_from_file(self, tmp_path, capsys):
        path = tmp_path / "lorenz.json"
        path.write_text(json.dumps({**LORENZ, "config": {"d": 2, "s": 2}}))
        out_csv = tmp_path / "table.csv"
        code = main(
            ["compare", str(path), "--modes", "ts", "--out-csv", str(out_csv)]
        )
        assert code == 0
        capsys.readouterr()
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        record = dict(zip(COMPARE_CSV_HEADER, rows[1]))
        assert (record["d"], record["s"], record["l"]) == ("2", "2", "1")
        assert record["status"] == "optimal"

    def test_all_cells_failing_returns_nonzero(self, cubic_file, capsys):
        assert main(["compare", cubic_file, "--d", "1", "--modes", "ts"]) == 1
        capsys.readouterr()

    def test_parallel_matches_serial(self, lorenz_file, tmp_path):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert (
            main(
                ["compare", lorenz_file, "--d", "2", "--modes", "ss,fd",
                 "--out-csv", str(serial)]
            )
            == 0
        )
        assert (
            main(
                ["compare", lorenz_file, "--d", "2", "--modes", "ss,fd",
                 "--jobs", "2", "--out-csv", str(parallel)]
            )
            == 0
        )
        with open(serial, newline="") as fh:
            s_rows = list(csv.reader(fh))
        with open(parallel, newline="") as fh:
            p_rows = list(csv.reader(fh))
        drop = [COMPARE_CSV_HEADER.index("seconds")]
        strip = lambda rows: [
            [v for k, v in enumerate(r) if k not in drop] for r in rows
        ]
        assert strip(s_rows) == strip(p_rows)


class TestSymmetries:
    def test_lorenz_group_and_blocks(self, lorenz_file, capsys):
        assert main(["symmetries", lorenz_file]) == 0
        out = capsys.readouterr().out
        assert "rank: 1" in out
        assert "r = 110" in out
        assert "block sizes [6, 4]" in out

    def test_degree_flag(self, lorenz_file, capsys):
        assert main(["symmetries", lorenz_file, "--d", "3"]) == 0
        assert "multiplier 1 (degree 0): block sizes [10, 10]" in capsys.readouterr().out

    @pytest.mark.parametrize("d", [2, 3])
    def test_network_output_matches_golden(self, d, capsys):
        path = GOLDEN / "random_model_n8_seed3.json"
        assert main(["symmetries", str(path), "--d", str(d)]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"symmetries_n8_seed3_d{d}.txt").read_text()

    @pytest.mark.parametrize(
        "flag", [["--s", "0"], ["--l", "2"], ["--mode", "ss"], ["--extension", "maximal"], ["--beta", "1"]]
    )
    def test_takes_only_the_degree(self, lorenz_file, capsys, flag):
        # the block partition depends on d alone, so no other setting is taken
        with pytest.raises(SystemExit) as exc:
            main(["symmetries", lorenz_file, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


class TestRandomModel:
    def test_deterministic_file(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["random-model", "6", "42", "--out", str(first)]) == 0
        assert main(["random-model", "6", "42", "--out", str(second)]) == 0
        assert first.read_text() == second.read_text()
        payload = json.loads(first.read_text())
        assert payload["metadata"]["seed"] == 42
        assert len(payload["metadata"]["edges"]) == 2
        assert payload["box"] == [[-1.0, 1.0]] * 6

    def test_file_matches_golden(self, tmp_path):
        path = tmp_path / "n8.json"
        assert main(["random-model", "8", "3", "--out", str(path)]) == 0
        assert path.read_text() == (GOLDEN / "random_model_n8_seed3.json").read_text()

    def test_generated_file_assembles(self, tmp_path):
        path = tmp_path / "net.json"
        assert main(["random-model", "6", "3", "--out", str(path)]) == 0
        loaded = load_problem(str(path))
        config = resolve_config(loaded, _ConfigD2())
        problem = assemble(loaded.system, loaded.box, config)
        assert problem.blocks

    def test_small_n_rejected(self, capsys):
        assert main(["random-model", "4", "0"]) == 2
        assert "at least 5" in capsys.readouterr().err

    def test_negative_seed_rejected(self, capsys):
        assert main(["random-model", "6", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "nonnegative integer" in captured.err
        assert captured.out == ""


class _ConfigD2(_Empty):
    d = 2
    mode = "ss"


class TestExportAndGrid:
    def test_export_stdout_matches_file(self, lorenz_file, tmp_path, capsys):
        out = tmp_path / "x.dat-s"
        assert main(["export-sdpa", lorenz_file, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["export-sdpa", lorenz_file]) == 0
        streamed = capsys.readouterr().out
        assert streamed == out.read_text()

    def test_unwritable_path_is_actionable(self, lorenz_file, tmp_path, capsys):
        bad = str(tmp_path / "missing" / "out")
        for argv in [
            ["export-sdpa", lorenz_file, "--out", bad],
            ["random-model", "6", "0", "--out", bad],
            ["run", lorenz_file, "--export-sdpa", bad],
            ["run", lorenz_file, "--grid", bad, "--resolution", "3"],
        ]:
            assert main(argv) == 2, argv
            assert f"error: cannot write {bad}: " in capsys.readouterr().err

    def test_bad_resolution_is_actionable(self, lorenz_file, monkeypatch, capsys):
        # the flag is checked when the arguments are parsed, before any solve
        def no_solve(*args, **kwargs):
            raise AssertionError("solve ran before --resolution was checked")

        monkeypatch.setattr("mpisos.cli.solve", no_solve)
        with pytest.raises(SystemExit) as exc:
            main(["run", lorenz_file, "--grid", "-", "--resolution", "nope"])
        assert exc.value.code == 2
        assert "--resolution" in capsys.readouterr().err

    def test_resolution_checked_against_box(self, lorenz_file, monkeypatch, capsys):
        # the per-axis count and the floor of 2 depend only on the box, so
        # they are checked before anything is assembled or solved
        def no_solve(*args, **kwargs):
            raise AssertionError("solve ran before --resolution was checked")

        monkeypatch.setattr("mpisos.cli.solve", no_solve)
        code = main(["run", lorenz_file, "--grid", "-", "--resolution", "9,9"])
        assert code == 2
        assert "one count per axis" in capsys.readouterr().err
        assert main(["run", lorenz_file, "--grid", "-", "--resolution", "1"]) == 2
        assert "at least 2 points" in capsys.readouterr().err
