"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload with --smoke (1 % of each span, BRUSS at N = 4 and 8
and the comparators' BRUSS at N = 4, one set-up trial a pass), untraced and
traced, and checks that:

* the last line has exactly the keys correct/attempted/failed/metrics, the
  run is correct and no solve failed;
* every metric named in BENCHMARK.json is printed, with its unit, and no
  other;
* the traced call counts equal the solver's own counters (RHS calls and
  phi_evals, factor calls and factorizations, solve calls and solves);
* the per-layer self times add up to the traced pass time;
* a package missing some of the traced names is traced without them and
  they are listed as absent.

Exits 1 with one line per failed check, 0 when all hold.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types

import layertrace
import run as run_py

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
IDENTITIES = (("problems.rhs.calls", "counters.phi_evals"),
              ("linalg.factor.calls", "counters.factorizations"),
              ("linalg.solve.calls", "counters.solves"))
# at smoke sizes a pass takes milliseconds, so the benchmark's own loop
# between solves is a visible share of it
ATTRIBUTION_SLACK = 0.02


def run(workload: str, trace: int) -> tuple:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "0", "--trace", str(trace),
           "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace}: exit "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def check(workload: str, trace: int, spec: dict) -> list:
    where = f"{workload} trace={trace}"
    detail, result = run(workload, trace)
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} "
                        f"failed={result['failed']} "
                        f"attempted={result['attempted']}")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        units = sorted(n for n in want if n in got and got[n] != want[n])
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, extra "
                        f"{sorted(set(got) - set(want))}, units {units}")
    if not trace:
        return problems
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for calls, counter in IDENTITIES:
        if metrics[calls] != metrics[counter]:
            problems.append(f"{where}: {calls} {metrics[calls]} != "
                            f"{counter} {metrics[counter]}")
    if detail["identity_mismatches"] or detail["absent_layers"]:
        problems.append(f"{where}: {detail['identity_mismatches']} "
                        f"absent {detail['absent_layers']}")
    slack = max(abs(metrics["trace.overhead_frac"]), ATTRIBUTION_SLACK)
    if abs(1.0 - metrics["trace.attributed_frac"]) > slack:
        problems.append(f"{where}: self times cover "
                        f"{metrics['trace.attributed_frac']:.4f} of the "
                        f"traced pass")
    return problems


def check_absent_layers() -> list:
    """A package without some wrapped names traces the rest and lists them."""
    def step(*args):
        return args

    stepper = types.SimpleNamespace(_stages=step, attempt_step=step)
    package = types.SimpleNamespace(stepper=stepper)
    tracer = layertrace.Tracer()
    with tracer.installed(package):
        stepper._stages(1)
        absent = tracer.absent
    problems = []
    if stepper._stages is not step:
        problems.append("absent layers: wrapped name not restored")
    if tracer.calls["stepper.stages"] != 1:
        problems.append("absent layers: present layer not traced")
    want = ["linalg.factor", "linalg.solve", "stepper.probe",
            "reference_rk.step"]
    if absent != want:
        problems.append(f"absent layers: {absent} != {want}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = check_absent_layers()
    for workload in run_py.DRAWS:
        for trace in (0, 1):
            problems += check(workload, trace, spec)
    for line in problems:
        print(f"FAIL {line}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
