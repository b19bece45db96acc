"""Seconds-long self-check of the benchmark; not part of the test suite.

    python3 perfbench/smoke.py

Runs every workload at tiny sizes through a fresh worker, plain and traced,
with every output check, and shows that:

- every check passes on correct outputs;
- a truncated output and a wrong value are each counted as a failure;
- the same seed gives the same input digest, another seed a different one;
- the traced pass gives the same outputs and records spans for its layers;
- every pass takes speed probes.

Exits 0 when all of that holds, 1 otherwise.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

# one wrong value per workload, on a field its check reads
CORRUPT = {
    "group": ("verify", lambda out: dict(out, bijective=False)),
    "sn-build": ("census-131", lambda out: dict(out, vertex_count=out["vertex_count"] + 1)),
    "homology": (
        "homology-pseudoprojective",
        lambda out: dict(
            out,
            reduced_homology=[
                dict(e, torsion=[x + 1 for x in e["torsion"]]) for e in out["reduced_homology"]
            ],
        ),
    ),
}
LAYER_SPANS = {
    "group": ("houghton.compose", "rays.partition_validate"),
    "sn-build": ("complexes.build_sn_truncated", "cli.json_emit"),
    "homology": ("snf.snf_diagonal", "fimodules.generation_degree.Q"),
}


def smoke_workload(name: str, workdir: Path) -> list[str]:
    problems = []
    ops = workloads.generate(name, 1, 0, True, workdir)
    digest = run.input_digest(ops)
    if run.input_digest(workloads.generate(name, 1, 0, True, workdir)) != digest:
        problems.append("same seed, different inputs")
    if run.input_digest(workloads.generate(name, 2, 0, True, workdir)) == digest:
        problems.append("another seed, same inputs")
    ops = workloads.generate(name, 1, 0, True, workdir)

    plain_report = run.Worker().run(ops, False, None, timeout=120)
    plain = plain_report["results"]
    failures = run.check_results(name, ops, plain)
    problems += [f"op {f['op']} ({f['job']}): {f['problem']}" for f in failures]

    victim = next(i for i, op in enumerate(ops) if op["job"] == CORRUPT[name][0])
    truncated = [dict(r) for r in plain]
    truncated[victim]["output"] = truncated[victim]["output"][:-2]
    wrong = [dict(r) for r in plain]
    wrong[victim]["output"] = json.dumps(CORRUPT[name][1](json.loads(plain[victim]["output"])))
    for label, results in (("truncated", truncated), ("wrong", wrong)):
        if len(run.check_results(name, ops, results)) != len(failures) + 1:
            problems.append(f"a {label} output was not counted as a failure")

    if len(plain_report["probes_s"]) < 2:
        problems.append("a pass took fewer than two speed probes")
    traced = run.Worker().run(ops, True, None, timeout=120)
    if [r["output"] for r in traced["results"]] != [r["output"] for r in plain]:
        problems.append("traced outputs differ from plain ones")
    functions = traced["trace"]["functions"]
    for span in LAYER_SPANS[name]:
        if functions.get(span, {}).get("calls", 0) == 0:
            problems.append(f"no {span} spans in the traced pass")
    print(f"{name}: {len(ops)} ops, inputs {digest}, {len(problems)} problems")
    return problems


def main() -> int:
    workdir = HERE / ".work" / "smoke"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        problems = [p for name in workloads.WORKLOADS for p in smoke_workload(name, workdir)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
