"""The three workloads: seeded inputs, their op lists and their output checks.

Every op goes from JSON text to JSON text.  ``generate`` builds one pass's
ops from the run seed and the pass index; each op carries a ``job`` name
(several ops may share one) and, under ``check``, what ``run.py`` needs to
verify the output.  ``check`` is never sent to the worker and runs outside
the timed region.  ``small=True`` gives the seconds-long sizes the smoke
check uses.

Inputs are built by this file, not by hforge's own generators, so a change
to the library cannot change what the benchmark feeds it.  The homology
workload is the exception: its two stability complexes and its FI-modules
are built with hforge at set-up (``build_sn_truncated``,
``houghton_h1_fimodule``), and only their JSON is handed to the worker.
"""
from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

# -- elements of the Houghton groups -------------------------------------------

FULL_OPS = ("verify", "compose", "invert", "decompose", "project", "axioms", "word")

# (k, copies n, exact grid threshold t, triples per (n, t), op kinds).  The
# count of each class is fixed, so a pass's cost does not swing with the
# seed; the seed only picks the elements.  k = 3 at t = 3 is the heavy tail
# (a compose there refines to thousands of cells), so it gets few ops.
GROUP_PLAN = (
    (1, (2, 3, 4), (1, 2, 3), 10, FULL_OPS + ("tvector",)),
    (2, (2, 3, 4), (1, 2), 2, FULL_OPS),
    (2, (2, 3, 4), (3,), 1, FULL_OPS),
    (3, (2, 3, 4), (1,), 1, FULL_OPS),
    (3, (2,), (2,), 1, FULL_OPS),
    (3, (3, 4), (2, 3), 1, ("compose", "invert")),
)
GROUP_PLAN_SMALL = (
    (1, (2, 3), (1, 2), 1, FULL_OPS + ("tvector",)),
    (2, (2,), (1,), 1, FULL_OPS),
)


def _grid_cells(k: int, t: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(base, dirs) of the cells of the threshold-t grid of N^k."""
    cells = []
    for base in itertools.product(range(1, t + 2), repeat=k):
        dirs = tuple(j + 1 for j, b in enumerate(base) if b == t + 1)
        cells.append((base, dirs))
    return cells


def random_element_json(k: int, n: int, t: int, rng: random.Random) -> dict:
    """A bijection of N^k x [n] permuting the t-grid cells of each shape across copies."""
    by_dirs: dict[tuple[int, ...], list] = {}
    for copy in range(1, n + 1):
        for base, dirs in _grid_cells(k, t):
            by_dirs.setdefault(dirs, []).append((copy, base))
    pieces = []
    for dirs in sorted(by_dirs):
        cells = by_dirs[dirs]
        targets = cells[:]
        rng.shuffle(targets)
        for (copy, base), (tcopy, tbase) in zip(cells, targets):
            pieces.append(
                {
                    "copy": copy,
                    "base": list(base),
                    "dirs": list(dirs),
                    "offset": [b - a for a, b in zip(base, tbase)],
                    "target_copy": tcopy,
                }
            )
    rng.shuffle(pieces)  # parsers accept any order
    return {"k": k, "m": n, "n": n, "pieces": pieces}


def _sigma(element: dict) -> list[int]:
    """Target copy of each copy's full-dimensional piece."""
    k = element["k"]
    out = {}
    for p in element["pieces"]:
        if len(p["dirs"]) == k:
            out[p["copy"]] = p["target_copy"]
    return [out[c] for c in range(1, element["m"] + 1)]


def kernel_part(element: dict) -> dict:
    """h with h(x, sigma(i)) = g(x, i): g's pieces with domain copies relabelled."""
    sigma = _sigma(element)
    pieces = [dict(p, copy=sigma[p["copy"] - 1]) for p in element["pieces"]]
    return dict(element, pieces=pieces)


def _in_ray(base, dirs, point) -> bool:
    return all(
        p >= b if j in dirs else p == b for j, (p, b) in enumerate(zip(point, base), start=1)
    )


def apply_pieces(element: dict, point: tuple[int, ...], copy: int):
    """Evaluate a map straight from its JSON pieces."""
    hits = [
        p for p in element["pieces"] if p["copy"] == copy and _in_ray(p["base"], p["dirs"], point)
    ]
    if len(hits) != 1:
        raise ValueError(f"{len(hits)} pieces contain {point} in copy {copy}")
    p = hits[0]
    return tuple(x + d for x, d in zip(point, p["offset"])), p["target_copy"]


def apply_inverse_pieces(element: dict, point: tuple[int, ...], copy: int):
    """Evaluate the inverse of a bijection straight from its JSON pieces."""
    for p in element["pieces"]:
        image_base = [b + d for b, d in zip(p["base"], p["offset"])]
        if p["target_copy"] == copy and _in_ray(image_base, p["dirs"], point):
            return tuple(x - d for x, d in zip(point, p["offset"])), p["copy"]
    raise ValueError(f"no piece maps onto {point} in copy {copy}")


def _generate_group(seed: int, pass_index: int, small: bool, workdir: Path) -> list[dict]:
    rng = random.Random(f"group/{seed}/{pass_index}")
    ops = []
    for k, ns, ts, triples, kinds in GROUP_PLAN_SMALL if small else GROUP_PLAN:
        for n, t, _ in itertools.product(ns, ts, range(triples)):
            a, b, c = (random_element_json(k, n, t, rng) for _ in range(3))
            for kind in kinds:
                if kind == "tvector":
                    inputs = [kernel_part(a)]
                elif kind in ("compose",):
                    inputs = [a, b]
                elif kind in ("axioms", "word"):
                    inputs = [a, b, c]
                else:
                    inputs = [a]
                ops.append(
                    {
                        "job": kind,
                        "kind": kind,
                        "inputs": [json.dumps(x) for x in inputs],
                        "check": {"inputs": inputs, "points": rng.getrandbits(32), "t": t},
                    }
                )
    return ops


def _sample_points(check: dict, k: int, n: int):
    rng = random.Random(check["points"])
    hi = 3 * check["t"] + 4
    return [
        (tuple(rng.randint(1, hi) for _ in range(k)), rng.randint(1, n)) for _ in range(4)
    ]


def _check_map_output(out: dict, expect, check: dict) -> str | None:
    """Re-parse through hforge, then compare a point sample with ``expect``."""
    from hforge.houghton import map_from_json
    from hforge.errors import ValidationError

    try:
        map_from_json(out)
    except ValidationError as exc:
        return f"output does not re-parse: {exc}"
    first = check["inputs"][0]
    for point, copy in _sample_points(check, first["k"], first["m"]):
        want = expect(point, copy)
        got = apply_pieces(out, point, copy)
        if got != want:
            return f"at {point} in copy {copy}: got {got}, want {want}"
    return None


def _check_group(op: dict, out) -> str | None:
    kind, check = op["kind"], op["check"]
    inputs = check["inputs"]
    a = inputs[0]
    if kind == "verify":
        want = {"valid": True, "bijective": True, "problems": []}
        return None if out == want else f"verify said {out}"
    if kind == "compose":
        b = inputs[1]
        return _check_map_output(out, lambda x, c: apply_pieces(a, *apply_pieces(b, x, c)), check)
    if kind == "invert":
        return _check_map_output(out, lambda x, c: apply_inverse_pieces(a, x, c), check)
    if kind == "word":
        b, c3 = inputs[1], inputs[2]

        def word(x, c):
            y = apply_pieces(a, x, c)
            y = apply_pieces(c3, *y)
            y = apply_inverse_pieces(b, *y)
            return apply_pieces(a, *y)

        return _check_map_output(out, word, check)
    if kind == "decompose":
        sigma = _sigma(a)
        if out["sigma"] != sigma:
            return f"sigma {out['sigma']} != {sigma}"
        return _check_map_output(
            out["kernel_element"],
            lambda x, c: apply_pieces(a, x, sigma.index(c) + 1),
            check,
        )
    if kind == "project":
        return None if out == {"sigma": _sigma(a)} else f"projection {out}"
    if kind == "tvector":
        want = [p["offset"][0] for c in range(1, a["m"] + 1) for p in a["pieces"]
                if p["copy"] == c and p["dirs"] == [1]]
        return None if out == want else f"tvector {out} != {want}"
    if kind == "axioms":
        want = {"associative": True, "identity": True, "inverse": True}
        return None if out == want else f"axioms {out}"
    return f"unknown kind {kind}"


# -- stability complexes, built ----------------------------------------------

SN_CENSUS = {
    # (k, n, B, include_top): (vertices, simplices by degree)
    (1, 4, 1, False): (84, {"0": 84, "1": 1692, "2": 9072}),
    (1, 2, 2, False): (256, {"0": 256}),
    (1, 3, 1, True): (45, {"0": 45, "1": 360, "2": 42}),
    (2, 1, 1, False): (146, {"0": 146}),
    (1, 3, 2, False): (1077, {"0": 1077, "1": 132720}),
    (1, 2, 1, False): (18, {"0": 18}),
    (1, 2, 1, True): (18, {"0": 18, "1": 6}),
    (1, 3, 1, False): (45, {"0": 45, "1": 360}),
}
SN_BUILDS = ((1, 4, 1, False), (1, 2, 2, False), (1, 3, 1, True), (2, 1, 1, False))
SN_BUILDS_SMALL = ((1, 2, 1, False), (1, 2, 1, True))
# Probe and section-check ops per pass (count, trials each), each with its
# own seed.  Fifteen section checks of twenty trials, well above the cheap
# probes and below the builds, put the median op and the tail percentile
# inside one cluster of similar ops rather than between two.
SN_PROBES, SN_PROBE_TRIALS = 5, 30
SN_SECTIONS, SN_SECTION_TRIALS = 15, 20


def _generate_sn(seed: int, pass_index: int, small: bool, workdir: Path) -> list[dict]:
    rng = random.Random(f"sn-build/{seed}")
    ops = []
    for k, n, b, top in SN_BUILDS_SMALL if small else SN_BUILDS:
        argv = ["complex", "build-sn", "--k", str(k), "--n", str(n), "--bound", str(b)]
        if top:
            argv.append("--include-top")
        ops.append(
            {
                "job": f"build-sn-{k}{n}{b}" + ("-top" if top else ""),
                "kind": "cli",
                "argv": argv,
                "check": {"census": [k, n, b, top]},
            }
        )
    census = (1, 3, 1) if small else (1, 3, 2)
    ops.append(
        {
            "job": "census-" + "".join(map(str, census)),
            "kind": "census",
            "params": list(census),
            "check": {"census": [*census, False]},
        }
    )
    probes, sections, trials = (2, 2, 3) if small else (SN_PROBES, SN_SECTIONS, SN_SECTION_TRIALS)
    for _ in range(probes):
        s = str(rng.randrange(1 << 30))
        argv = ["complex", "probe", "--k", "1", "--n", "3", "--bound", "1",
                "--trials", str(SN_PROBE_TRIALS), "--seed", s]
        ops.append({"job": "probe", "kind": "cli", "argv": argv,
                    "check": {"probe": SN_PROBE_TRIALS}})
    for _ in range(sections):
        s = str(rng.randrange(1 << 30))
        argv = ["complex", "section-check", "--k", "2", "--n", "4", "--set-size", "6",
                "--trials", str(trials), "--seed", s]
        ops.append({"job": "section-check", "kind": "cli", "argv": argv,
                    "check": {"sections": trials}})
    return ops


def _check_sn(op: dict, out) -> str | None:
    check = op["check"]
    if "census" in check:
        vertices, counts = SN_CENSUS[tuple(check["census"])]
        got = (out["vertex_count"], out["simplex_counts"])
        if got != (vertices, counts):
            return f"census {got} != {(vertices, counts)}"
        if "complex" in out and len(out["complex"]["vertices"]) != vertices:
            return "complex JSON vertex list does not match the census"
        return None
    if "probe" in check:
        if out["connected_pairs"] != check["probe"] or out["disconnected_pairs"] != 0:
            return f"probe connected {out['connected_pairs']} of {check['probe']}"
        return None
    if out["all_sections_verified"] is not True or len(out["trials"]) != check["sections"]:
        return "a section failed to verify"
    return None


# -- homology and FI-modules ---------------------------------------------------


def _closure_counts(vertex_count: int, maximal) -> tuple[list[int], int]:
    """f-vector of the face closure, and the number of connected components."""
    faces = set()
    for s in maximal:
        for size in range(1, len(s) + 1):
            faces.update(itertools.combinations(sorted(s), size))
    top = max((len(f) for f in faces), default=0)
    fvec = [sum(1 for f in faces if len(f) == d + 1) for d in range(top)]
    parent = list(range(vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f in faces:
        for v in f[1:]:
            parent[find(v)] = find(f[0])
    used = {v for f in faces for v in f}
    return fvec, len({find(v) for v in used})


def _maximal(simplices) -> list[tuple[int, ...]]:
    """Maximal members of a face-closed simplex set."""
    covered = set()
    for s in simplices:
        if len(s) > 1:
            covered.update(s[:i] + s[i + 1:] for i in range(len(s)))
    return sorted((s for s in simplices if s not in covered), key=lambda s: (len(s), s))


def _relabel(labels: list, maximal, rng: random.Random) -> dict:
    order = list(range(len(labels)))
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    return {
        "vertices": [labels[old] for old in order],
        "maximal_simplices": sorted(
            (sorted(new_index[v] for v in s) for s in maximal), key=lambda s: (len(s), s)
        ),
    }


def random_2_complex(vertices: int, triangles: int, rng: random.Random) -> dict:
    tris = set()
    while len(tris) < triangles:
        tris.add(tuple(sorted(rng.sample(range(vertices), 3))))
    used = {v for t in tris for v in t}
    maximal = sorted(tris) + [(v,) for v in range(vertices) if v not in used]
    return _relabel(list(range(vertices)), maximal, rng)


def pseudo_projective_plane(m: int, circle: int, rings: int, rng: random.Random) -> dict:
    """A disk whose boundary wraps m times around a circle: reduced H_1 = Z/m.

    The boundary ring of ``m * circle`` vertices is identified with the
    circle's ``circle`` vertices (circle >= 3 keeps it simplicial); ``rings``
    fresh rings and a centre vertex fill the disk.
    """
    length = m * circle
    ring_ids = [[i % circle for i in range(length)]]
    nxt = circle
    for _ in range(rings):
        ring_ids.append(list(range(nxt, nxt + length)))
        nxt += length
    centre = nxt
    tris = set()
    for outer, inner in zip(ring_ids, ring_ids[1:]):
        for i in range(length):
            j = (i + 1) % length
            tris.add(tuple(sorted((outer[i], outer[j], inner[i]))))
            tris.add(tuple(sorted((outer[j], inner[i], inner[j]))))
    last = ring_ids[-1]
    for i in range(length):
        tris.add(tuple(sorted((last[i], last[(i + 1) % length], centre))))
    return _relabel(list(range(centre + 1)), sorted(tris), rng)


def _sn_complex_json(k: int, n: int, b: int, top: bool, skeleton: int, rng) -> dict:
    from hforge.complexes import build_sn_truncated
    from hforge.houghton import map_to_json

    cx = build_sn_truncated(k, n, b, include_top=top)
    simplices = [s for d, ss in cx.simplices.items() if d <= skeleton for s in ss]
    labels = [map_to_json(v) for v in cx.vertices]
    return _relabel(labels, _maximal(simplices), rng)


def _generate_homology(seed: int, pass_index: int, small: bool, workdir: Path) -> list[dict]:
    from hforge.fimodules import houghton_h1_fimodule, module_to_json

    rng = random.Random(f"homology/{seed}")
    complexes = []  # (job, complex JSON, expected torsion of H_1 or None)
    if small:
        complexes.append(("homology-sn121-top", _sn_complex_json(1, 2, 1, True, 2, rng), None))
        complexes.append(("homology-random", random_2_complex(12, 20, rng), None))
        complexes.append(("homology-pseudoprojective", pseudo_projective_plane(2, 3, 1, rng), 2))
    else:
        complexes.append(("homology-sn131-top", _sn_complex_json(1, 3, 1, True, 2, rng), None))
        complexes.append(("homology-sn141-skel1", _sn_complex_json(1, 4, 1, False, 1, rng), None))
        for _ in range(2):
            complexes.append(("homology-random", random_2_complex(40, 300, rng), None))
        for m in (2, 3, 5, 7):
            complexes.append(
                ("homology-pseudoprojective", pseudo_projective_plane(m, 4, 2, rng), m)
            )
        # Eight alike medium complexes hold the tail percentile (the
        # eleventh-slowest op) and 32 small ones the median, each inside one
        # cluster of similar ops.
        for _ in range(8):
            complexes.append(("homology-medium", random_2_complex(24, 100, rng), None))
        for _ in range(32):
            complexes.append(("homology-small", random_2_complex(12, 24, rng), None))
    ops = []
    for i, (job, cx, torsion) in enumerate(complexes):
        path = workdir / f"complex-{i}.json"
        path.write_text(json.dumps(cx), encoding="utf-8")
        fvec, components = _closure_counts(len(cx["vertices"]), cx["maximal_simplices"])
        ops.append(
            {
                "job": job,
                "kind": "cli",
                "argv": ["complex", "homology", str(path)],
                "check": {"fvec": fvec, "components": components, "torsion": torsion},
            }
        )
    simplex = 5 if small else 8
    sphere = _relabel(
        list(range(simplex)), list(itertools.combinations(range(simplex), simplex - 1)), rng
    )
    path = workdir / "sphere.json"
    path.write_text(json.dumps(sphere), encoding="utf-8")
    ops.append(
        {
            "job": f"wcm-skel{simplex - 2}-simplex{simplex}",
            "kind": "cli",
            "argv": ["complex", "wcm", str(path), "--target", str(simplex - 2)],
            "check": {"wcm": simplex - 2},
        }
    )
    for ring, bound in (("Z", 4 if small else 14), ("Q", 4 if small else 8)):
        path = workdir / f"module-{ring}.json"
        path.write_text(json.dumps(module_to_json(houghton_h1_fimodule(bound, ring))), "utf-8")
        for verb in ("gendeg", "report"):
            ops.append(
                {
                    "job": f"fimod-{verb}-{ring}",
                    "kind": "cli",
                    "argv": ["fimod", verb, str(path)],
                    "check": {"fimod": verb},
                }
            )
    return ops


def _check_homology(op: dict, out) -> str | None:
    check = op["check"]
    if "fimod" in check:
        key = "generation_degree" if check["fimod"] == "gendeg" else "truncation_generation_degree"
        return None if out[key] == 2 else f"{key} is {out[key]}, not 2"
    if "wcm" in check:
        want = {"target": check["wcm"], "wcm": True, "violation": None}
        return None if out == want else f"wcm said {out}"
    entries = out["reduced_homology"]
    euler = sum((-1) ** e["degree"] * e["betti"] for e in entries)
    want_euler = -1 + sum((-1) ** d * f for d, f in enumerate(check["fvec"]))
    if euler != want_euler:
        return f"reduced Euler characteristic {euler} != {want_euler}"
    if entries[0]["betti"] != check["components"] - 1:
        return f"betti_0 {entries[0]['betti']} but {check['components']} components"
    if check["torsion"] is not None:
        m = check["torsion"]
        got = [(e["betti"], e["torsion"]) for e in entries]
        want = [(0, [m] if e["degree"] == 1 else []) for e in entries]
        if got != want:
            return f"pseudo-projective plane of order {m}: {got}"
    return None


WORKLOADS = {
    "group": (_generate_group, _check_group),
    "sn-build": (_generate_sn, _check_sn),
    "homology": (_generate_homology, _check_homology),
}


def generate(workload: str, seed: int, pass_index: int, small: bool, workdir: Path) -> list[dict]:
    """One pass's ops, in a seeded order.

    Shuffling spreads each kind of op over the whole pass, so the median op
    and the tail sample the machine across the pass, not in one burst.
    """
    ops = WORKLOADS[workload][0](seed, pass_index, small, workdir)
    random.Random(f"order/{workload}/{seed}/{pass_index}").shuffle(ops)
    return ops


def check(workload: str, op: dict, text: str) -> str | None:
    """None when the output is right, else what is wrong with it."""
    try:
        out = json.loads(text)
        return WORKLOADS[workload][1](op, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
