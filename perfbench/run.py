"""hforge benchmark runner: one workload, closed loop, one client.

    python3 perfbench/run.py --workload {group,sn-build,homology} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Each pass generates its inputs from the seed,
starts a fresh worker process (``worker.py``, so one pass's canonical caches
never serve the next), sends it the pass's op list and waits for the
answers: one client, one thread, one op at a time.  Passes repeat until the
next one would end after ``--seconds``; there is always at least one.  Every
output is checked outside the timed region.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics.  The last line of stdout is the JSON result; the lines above it
name every metric with its unit and sample count, the tail percentile and
the per-pass input and output digests.  A full report is also written to
``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # set-up is repeated at least this often; the median is reported
RUN_LIMIT_S = 170  # a run never outlives this, whatever --seconds says
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops above it
# The worker's speed probe takes about this long on the reference machine (a
# 2-vCPU Xeon VM at 2.1 GHz) in its usual state; see "Calibrated times".
REFERENCE_PROBE_S = 0.030


class Worker:
    """A fresh ``worker.py`` process, started and waited for until it is ready."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(SRC)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
        )
        line = self.proc.stdout.readline()
        if line != b"ready\n":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"worker did not start: {line!r}")

    def run(self, ops: list[dict], trace: bool, spans_path: Path | None, timeout: float) -> dict:
        job = {
            "ops": [{k: v for k, v in op.items() if k != "check"} for op in ops],
            "trace": trace,
            "spans_path": str(spans_path) if spans_path else None,
        }
        try:
            out, _ = self.proc.communicate(json.dumps(job).encode(), timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return json.loads(out)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def input_digest(ops: list[dict]) -> str:
    """Digest of what the worker is asked, with work-directory paths reduced to names."""
    parts = []
    for op in ops:
        parts.append(op["job"])
        parts.extend(op.get("inputs", ()))
        parts.extend(str(x) for x in op.get("params", ()))
        for arg in op.get("argv", ()):
            path = Path(arg)
            if path.is_absolute() and path.is_file():
                parts.append(path.name)
                parts.append(path.read_text(encoding="utf-8"))
            else:
                parts.append(arg)
    return _digest(parts)


def tail_percentile(ops_per_pass: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of one pass's ops above it."""
    return max(0, math.floor(100 * (ops_per_pass - TAIL_BEYOND) / ops_per_pass))


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def check_results(workload: str, ops: list[dict], results: list[dict]) -> list[dict]:
    """One entry per failed op: it raised, exited nonzero or gave a wrong output."""
    failures = []
    for i, (op, res) in enumerate(zip(ops, results)):
        problem = res["error"] if not res["ok"] else workloads.check(workload, op, res["output"])
        if problem:
            failures.append({"op": i, "job": op["job"], "problem": problem[-2000:]})
    return failures


def set_up(workload: str, seed: int, index: int, workdir: Path) -> tuple[list[dict], Worker, float]:
    """Generate one pass's inputs and start its worker; returns both and the time taken."""
    t0 = perf_counter()
    ops = workloads.generate(workload, seed, index, False, workdir)
    worker = Worker()
    return ops, worker, perf_counter() - t0


def run_pass(workload, seed, index, trace, workdir, results_dir, deadline) -> tuple[float, dict]:
    """Set up and run one pass; returns its set-up time and its record."""
    ops, worker, setup = set_up(workload, seed, index, workdir)
    spans = results_dir / f"spans-{workload}-seed{seed}.jsonl" if trace else None
    report = worker.run(ops, trace, spans, timeout=max(1.0, deadline - perf_counter()))
    failures = check_results(workload, ops, report["results"])
    record = {
        "trace": trace,
        "scale": machine_scale(report),
        "wall_s": report["wall_s"],
        "latencies_s": [r["seconds"] for r in report["results"]],
        "jobs": [op["job"] for op in ops],
        "maxrss_kb": report["maxrss_kb"],
        "failures": failures,
        "input_digest": input_digest(ops),
        "output_digest": _digest(r["output"] for r in report["results"]),
        "cli_bytes_out": report["cli_bytes_out"],
        "cache": report["cache"],
        "trace_summary": report.get("trace"),
    }
    return setup, record


def machine_scale(report: dict) -> float:
    """Reference probe time over this worker's median probe time."""
    return REFERENCE_PROBE_S / statistics.median(report["probes_s"])


def extra_setup(workload, seed, index, workdir) -> float:
    """A calibrated set-up with no pass behind it, when a run has too few passes."""
    _, worker, setup = set_up(workload, seed, index, workdir)
    return setup * machine_scale(worker.run([], False, None, timeout=60))


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, list[str]]:
    latencies = [x * 1000 * p["scale"] for p in passes for x in p["latencies_s"]]
    per_pass = len(passes[0]["latencies_s"])
    pct = tail_percentile(per_pass)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] * p["scale"] for p in passes),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": percentile(latencies, pct),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024 for p in passes),
    }
    attempted = len(latencies)
    failed = sum(len(p["failures"]) for p in passes)
    notes = [
        f"setup_s: median of {len(setups)} set-ups",
        f"wall_s: median of {len(passes)} passes of {per_pass} ops",
        f"op_p50_ms: median of {attempted} ops",
        f"op_tail_ms: p{pct} of {attempted} ops",
        f"peak_rss_mb: median of {len(passes)} workers",
        f"fail_frac: {failed}/{attempted} = {failed / attempted:.4f}",
        f"raw wall_s: median {statistics.median(p['wall_s'] for p in passes):.6g} s; "
        f"machine scale: median {statistics.median(p['scale'] for p in passes):.4f}",
    ]
    return values, notes


def per_layer(names: list[str], workload: str, passes: list[dict]) -> tuple[dict, list[str]]:
    traced = [p for p in passes if p["trace"]]
    plain = [p for p in passes if not p["trace"]]

    def med(fn):
        vals = [fn(p) for p in traced]
        return None if any(v is None for v in vals) else statistics.median(vals)

    def from_trace(name: str):
        if name == "trace.overhead_frac":
            untraced = statistics.median(p["wall_s"] * p["scale"] for p in plain)
            return med(lambda p: p["wall_s"] * p["scale"]) / untraced - 1
        if name == "cli.bytes_out":
            return med(lambda p: p["cli_bytes_out"])
        if name.startswith("houghton.canonical_cache."):
            return med(lambda p: p["cache"][name.rsplit(".", 1)[1]])
        if name.startswith("job."):
            _, wl, job, _ = name.split(".")
            if wl != workload:
                return 0.0
            return statistics.median(
                p["scale"] * sum(s for s, j in zip(p["latencies_s"], p["jobs"]) if j == job)
                for p in plain
            )
        fn, field = name.rsplit(".", 1)
        if field == "calls":
            return med(lambda p: p["trace_summary"]["functions"].get(fn, {}).get(field, 0))
        if field == "self_s":
            return med(
                lambda p: p["scale"] * p["trace_summary"]["functions"].get(fn, {}).get(field, 0)
            )
        return med(lambda p: p["trace_summary"]["counters"].get(name, 0))

    values = {name: from_trace(name) for name in names}
    notes = [
        f"per-layer: median of {len(traced)} traced passes; job times and the "
        f"untraced wall from {len(plain)} untraced passes",
    ]
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("group", "sn-build", "homology"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "hforge" / "__init__.py").is_file() or not bench_file.is_file():
        sys.stderr.write(f"no hforge sources under {SRC}; run from the repository root\n")
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(bench_file.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    workdir = HERE / ".work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    setups, passes = [], []
    try:
        while True:
            # a traced pass reruns the inputs of the untraced pass before it
            trace = bool(args.trace) and len(passes) % 2 == 1
            index = len(passes) // 2 if args.trace else len(passes)
            t0 = perf_counter()
            setup, record = run_pass(
                args.workload, args.seed, index, trace, workdir, results_dir, deadline
            )
            setups.append(setup * record["scale"])
            passes.append(record)
            took = perf_counter() - t0
            both = not args.trace or len(passes) >= 2
            if both and perf_counter() - start + took > args.seconds:
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(extra_setup(args.workload, args.seed, len(setups), workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p["trace"]]
    if args.trace:
        values, notes = per_layer([m["name"] for m in wanted], args.workload, passes)
    else:
        values, notes = end_to_end(plain, setups)
    attempted = sum(len(p["latencies_s"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    for p in passes:
        notes.append(
            f"pass {'traced' if p['trace'] else 'plain'}: wall {p['wall_s']:.3f} s, "
            f"inputs {p['input_digest']}, outputs {p['output_digest']}, "
            f"{len(p['failures'])} failed"
        )
        for f in p["failures"][:3]:
            notes.append(f"  failed op {f['op']} ({f['job']}): {f['problem'].splitlines()[-1]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    for m in wanted:
        v = values[m["name"]]
        notes.append(f"{m['name']} = {v if v is None else f'{v:.6g}'} {m['unit']}")
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setups_s": setups, "passes": passes, "result": result}
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print("\n".join(notes))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
