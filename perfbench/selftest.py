"""Fast self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

It runs the one-cell ``tiny`` workload (lorenz d=2 ``ts``) and checks that

* the untraced and the traced run each print, as their last line, every
  metric ``BENCHMARK.json`` names, with its unit, and pass every check;
* a reference whose objective is off by 1e-3 turns the cell into a failure
  that ``fail_frac`` counts and marks the run incorrect.

Exits 0 on success; prints what differs and exits 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def run(trace: int, *extra: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", "tiny",
        "--seed", "0", "--seconds", "1", "--trace", str(trace), *extra,
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def metric_errors(result: dict, declared: list[dict]) -> list[str]:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    errors = [f"missing metric {n}" for n in want if n not in got]
    errors += [f"undeclared metric {n}" for n in got if n not in want]
    errors += [
        f"{n}: unit {got[n]!r}, declared {want[n]!r}"
        for n in want
        if n in got and got[n] != want[n]
    ]
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        result = run(trace)
        errors += [f"trace {trace}: {e}" for e in metric_errors(result, declared)]
        if not result["correct"] or result["failed"]:
            errors.append(f"trace {trace}: clean run reports {result}")

    references = json.loads((HERE / "reference.json").read_text())
    perturbed = dict(references["lorenz-d2-ts"])
    perturbed["objective"] *= 1.0 + 1e-3
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "selftest-reference.json"
    path.write_text(json.dumps({"lorenz-d2-ts": perturbed}))
    result = run(1, "--reference", str(path))
    if result["correct"] or result["metrics"]["fail_frac"]["value"] != 1.0:
        errors.append(f"perturbed reference not reported as a failure: {result}")

    for error in errors:
        print(error)
    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
