"""One pass of one workload, in a fresh process.

Usage: ``python3 perfbench/worker.py SRC_DIR``.  The worker imports hforge
from ``SRC_DIR``, prints ``ready`` and then reads one job from stdin:
``{"ops": [...], "trace": bool, "spans_path": str | null}``.  It runs the
ops in order, one at a time, timing each from JSON text in to JSON text out,
and writes one JSON object with the outputs, the timings, the speed probes
(taken every half second in untraced passes, at the start and end of
traced ones), its own ``ru_maxrss`` and (when traced) the span summary to
stdout.  An op's time leaves out any probe that interrupted it.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter


PROBE_EVERY_S = 0.5  # wall-clock period of the speed probes in untraced passes


def speed_probe() -> float:
    """Seconds this process takes for a fixed piece of pure-Python work.

    The work (tuples, sets, subset tests, dicts, integer list arithmetic)
    belongs to the benchmark and never changes, so its time follows the
    speed the shared machine gives this process at that moment.
    """
    t0 = perf_counter()
    rows = [tuple(range(i % 50, i % 50 + 4)) for i in range(3000)]
    kept = []
    for r in rows:
        s = set(r)
        if not any(s < set(m) for m in kept[-30:]):
            kept.append(r)
    index = {r: i for i, r in enumerate(rows)}
    acc = sum(index[r] * 3 - r[1] for r in rows) + len(kept)
    row = list(range(300))
    for _ in range(30):
        row = [(x * 3 + acc) % 1009 for x in row]
    return perf_counter() - t0


class Prober:
    """Runs ``speed_probe`` from a timer signal, also in the middle of long ops.

    Each probe's busy interval is kept, so the time it took can be taken
    out of the op it interrupted.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(speed_probe())
        self.busy.append((t0, perf_counter()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def busy_since(self, index: int, t0: float, t1: float) -> float:
        """Probe time inside [t0, t1] among the probes from ``index`` on."""
        return sum(max(0.0, min(e, t1) - max(s, t0)) for s, e in self.busy[index:])


def _emit(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _group_op(kind: str, texts: list[str]) -> str:
    """An element-verb request, answered the way ``hforge element`` answers it."""
    from hforge import houghton
    from hforge.errors import ValidationError

    if kind == "verify":
        try:
            f = houghton.map_from_json(json.loads(texts[0]))
        except ValidationError as exc:
            return _emit({"valid": False, "problems": [str(exc)]})
        diag = houghton.validate(f)
        return _emit(
            {"valid": diag.valid, "bijective": diag.bijective, "problems": list(diag.problems)}
        )
    maps = [houghton.map_from_json(json.loads(t)) for t in texts]
    if kind == "compose":
        return _emit(houghton.map_to_json(houghton.compose(maps[0], maps[1])))
    if kind == "invert":
        return _emit(houghton.map_to_json(houghton.inverse(maps[0])))
    if kind == "decompose":
        kernel, sigma = houghton.decompose(maps[0])
        return _emit(
            {"kernel_element": houghton.map_to_json(kernel), "sigma": list(sigma.images)}
        )
    if kind == "project":
        return _emit({"sigma": list(houghton.sigma_projection(maps[0]).images)})
    if kind == "tvector":
        return _emit(list(houghton.translation_vector(maps[0])))
    if kind == "axioms":
        a, b, c = maps
        ident = houghton.identity_map(a.k, a.n)
        inv = houghton.inverse(a)
        compose, equals = houghton.compose, houghton.equals
        return _emit(
            {
                "associative": equals(compose(compose(a, b), c), compose(a, compose(b, c))),
                "identity": equals(compose(a, ident), a) and equals(compose(ident, a), a),
                "inverse": equals(compose(a, inv), ident) and equals(compose(inv, a), ident),
            }
        )
    if kind == "word":
        a, b, c = maps
        compose = houghton.compose
        product = compose(compose(compose(a, houghton.inverse(b)), c), a)
        return _emit(houghton.map_to_json(product))
    raise ValueError(f"unknown group op {kind!r}")


def _run_op(op: dict) -> tuple[bool, str]:
    kind = op["kind"]
    if kind == "cli":
        from hforge import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(op["argv"])
        return code == 0, buf.getvalue()
    if kind == "census":
        from hforge import complexes

        k = complexes.build_sn_truncated(*op["params"])
        counts = {str(d): len(k.simplices[d]) for d in sorted(k.simplices)}
        return True, _emit({"vertex_count": len(k.vertices), "simplex_counts": counts})
    return True, _group_op(kind, op["inputs"])


def _cache_stats() -> dict:
    """hits/misses/size summed over houghton's canonical caches, None once gone."""
    from hforge import houghton

    caches = (getattr(houghton, name, None) for name in ("_canonical_table", "_canonical_dict"))
    infos = [fn.cache_info() for fn in caches if hasattr(fn, "cache_info")]
    if not infos:
        return {"hits": None, "misses": None, "size": None}
    return {
        "hits": sum(i.hits for i in infos),
        "misses": sum(i.misses for i in infos),
        "size": sum(i.currsize for i in infos),
    }


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    import hforge.cli  # noqa: F401  (imports every layer)

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    cli_bytes = 0
    prober = Prober()
    prober.samples.append(speed_probe())
    if tracer is None:  # a probe inside a span would count as that span's time
        prober.start()
    for op in job["ops"]:
        error = None
        first = len(prober.busy)
        t0 = perf_counter()
        try:
            if tracer is None:
                ok, out = _run_op(op)
            else:
                ok, out = tracer.call(f"op.{op['job']}", _run_op, (op,), {})
        except Exception:  # noqa: BLE001 - a failing op is counted, the pass goes on
            ok, out, error = False, "", traceback.format_exc()
        t1 = perf_counter()
        seconds = t1 - t0 - prober.busy_since(first, t0, t1)
        if op["kind"] == "cli":
            cli_bytes += len(out.encode())
        results.append({"ok": ok, "seconds": seconds, "output": out, "error": error})
    prober.stop()
    prober.samples.append(speed_probe())
    report = {
        "results": results,
        "wall_s": sum(r["seconds"] for r in results),
        "probes_s": prober.samples,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cli_bytes_out": cli_bytes,
        "cache": _cache_stats(),
    }
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary()
        if job.get("spans_path"):
            with open(job["spans_path"], "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
