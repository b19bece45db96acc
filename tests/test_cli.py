import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hforge
import hforge.cli as cli_module
from hforge.cli import main

from _oracles import RP2_FACETS

FIXTURES = Path(__file__).parent / "fixtures"


def assert_json_dumps_bytes(out):
    """CLI JSON is exactly what ``json.dumps(..., sort_keys=True, indent=2)`` writes."""
    if isinstance(out, bytes):
        out = out.decode("utf-8")
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    text_format = "--format" in argv and argv[argv.index("--format") + 1] == "text"
    if out.out and not text_format:
        assert_json_dumps_bytes(out.out)
    return code, out.out, out.err


def test_element_verify_ok(capsys):
    code, out, _ = run_cli(capsys, "element", "verify", str(FIXTURES / "generator.json"))
    assert code == 0
    report = json.loads(out)
    assert report["valid"] and report["bijective"]


def test_element_verify_broken_exits_2(capsys):
    code, out, _ = run_cli(capsys, "element", "verify", str(FIXTURES / "broken.json"))
    assert code == 2
    report = json.loads(out)
    assert not report["valid"]
    assert any("Ray" in p or "ray" in p for p in report["problems"])


def test_element_compose_identity(capsys, tmp_path):
    out_path = tmp_path / "result.json"
    code, _, _ = run_cli(
        capsys,
        "element",
        "compose",
        str(FIXTURES / "identity_n2.json"),
        str(FIXTURES / "generator.json"),
        "-o",
        str(out_path),
    )
    assert code == 0
    got = json.loads(out_path.read_text())
    expected = json.loads((FIXTURES / "generator.json").read_text())
    assert got == expected


def test_element_tvector_text(capsys):
    code, out, _ = run_cli(
        capsys, "element", "tvector", str(FIXTURES / "generator.json"), "--format", "text"
    )
    assert code == 0
    assert out.strip() == "[-1, 1]"


def test_element_invert_project_decompose(capsys):
    code, out, _ = run_cli(capsys, "element", "project", str(FIXTURES / "generator.json"))
    assert code == 0
    assert json.loads(out)["sigma"] == [1, 2]

    code, out, _ = run_cli(capsys, "element", "decompose", str(FIXTURES / "generator.json"))
    assert code == 0
    rep = json.loads(out)
    assert rep["sigma"] == [1, 2]

    code, out, _ = run_cli(capsys, "element", "invert", str(FIXTURES / "identity_n2.json"))
    assert code == 0
    assert json.loads(out) == json.loads((FIXTURES / "identity_n2.json").read_text())


def test_build_sn_writes_vertices_without_recomputing_tables(capsys, monkeypatch):
    """Vertex maps built from the enumerated leaves carry their canonical tables,
    so writing the (1,4,1) report adds no ``_canonical_table`` miss after
    enumeration."""
    from hforge import complexes, houghton

    enumerated = []
    inner = complexes._bounded_vertices

    def recorded(*args, **kwargs):
        out = inner(*args, **kwargs)
        _, leaves, _ = out
        enumerated.append((len(leaves), houghton._canonical_table.cache_info().misses))
        return out

    monkeypatch.setattr(complexes, "_bounded_vertices", recorded)
    code, out, _ = run_cli(capsys, "complex", "build-sn", "--k", "1", "--n", "4", "--bound", "1")
    assert code == 0
    [(vertices, misses)] = enumerated
    assert vertices == len(json.loads(out)["complex"]["vertices"]) == 84
    assert houghton._canonical_table.cache_info().misses == misses


def test_complex_build_sn_census(capsys):
    code, out, _ = run_cli(
        capsys, "complex", "build-sn", "--k", "1", "--n", "2", "--bound", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["vertex_count"] == 18
    assert report["simplex_counts"]["0"] == 18


# sha256 of `complex build-sn` stdout, pinned from a build that tested every
# vertex pair and found maximal simplices by a quadratic scan; the pruned build
# must reproduce it byte for byte.
BUILD_SN_DIGESTS = [
    (("--k", "1", "--n", "4", "--bound", "1"),
     "d199823e088e31ed79a1063c81b9bcb161cde0b068fc2e4195c40a9ab2ee8977"),
    (("--k", "1", "--n", "2", "--bound", "2"),
     "c9c234286566d7114c34dc3f20c3afecb1cb814b31828f2190bf5e64caafe526"),
    (("--k", "1", "--n", "3", "--bound", "1", "--include-top"),
     "dae5f59b5ff038c274553c88001851ccb9062b740820791a1990b59b244ca130"),
    (("--k", "2", "--n", "1", "--bound", "1"),
     "539eb09b775bdb8aacc5f73648e45ada49cc41c5dee29a4170edcd8773636d99"),
    # the one k = 2 cover-at-top build, too large for the brute-force build test:
    # 8,554,383 bytes, 7,130 vertices and 920 edges, pinned from the build that
    # enumerated each vertex as a threshold-grid map and then canonicalised it
    (("--k", "2", "--n", "2", "--bound", "1", "--include-top"),
     "044cbea8b46e921256def16fd51aa017057264c2e01a2005244e74bcc2c9ef7c"),
]


@pytest.mark.parametrize(
    "params, digest",
    BUILD_SN_DIGESTS,
    ids=["1-4-1", "1-2-2", "1-3-1-top", "2-1-1", "2-2-1-top"],
)
def test_build_sn_stdout_digests(capsys, params, digest):
    code, out, _ = run_cli(capsys, "complex", "build-sn", *params)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# sha256 of `complex section-check` stdout, pinned from the build that drew
# each member as a restricted random element and tested every pair of
# image-cell sets for each simplex.
SECTION_CHECK_DIGESTS = [
    (("--k", "1", "--n", "2", "--set-size", "0", "--trials", "5", "--seed", "1"),
     "98a63cd7380510856d93ee6f4dcc41a67bfdcb225c9a4a355ae61ab0c3b7c298"),
    (("--k", "1", "--n", "3", "--set-size", "3", "--trials", "10", "--seed", "2"),
     "befc4bbec6eae694ba0a9926b70673a078797a1f55e3754523b239176e08d63b"),
    (("--k", "2", "--n", "4", "--set-size", "6", "--trials", "5", "--seed", "3"),
     "6697b02a6ebdff2f6ed4dce24826458c13f2468d68d037a41c87978b7dc414cf"),
    (("--k", "2", "--n", "3", "--set-size", "3", "--trials", "8", "--seed", "4", "--bound", "1"),
     "851ae668070c1d8bd74c9bade6934077893d63f38b084b509817ca5ee2f96067"),
    (("--k", "1", "--n", "4", "--set-size", "6", "--trials", "6", "--seed", "5"),
     "5c8cabd5a0dced54aeee287bb050d2f09635ab913698ce6a1a8ef60a7eab4982"),
]


@pytest.mark.parametrize(
    "params, digest", SECTION_CHECK_DIGESTS, ids=["1-2-0", "1-3-3", "2-4-6", "2-3-3", "1-4-6"]
)
def test_section_check_stdout_digests(capsys, params, digest):
    code, out, _ = run_cli(capsys, "complex", "section-check", *params)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# sha256 of `complex probe` stdout, pinned from the build that found the
# pool's component by union-find and read its reduced H_0 by exact
# elimination.  The (1,3,2) case has 5 failures and a component of 1,080.
PROBE_DIGESTS = [
    (("--k", "1", "--n", "3", "--bound", "1", "--trials", "30", "--seed", "0"),
     "32ca7e48008c3dbcecc2c5d11f8b9c5a4733069ce8ebc82d634ca838d181f596"),
    (("--k", "1", "--n", "4", "--bound", "1", "--trials", "20", "--seed", "1"),
     "aa6d5e43afed0d16cfb0126f793fd23865300566e6ca0355713ffdabc2d78496"),
    (("--k", "2", "--n", "3", "--bound", "0", "--trials", "20", "--seed", "2"),
     "26049cdd9dec4ec22f03cb5b9be8dec75604fe734b058620f768cae4aac44500"),
    (("--k", "1", "--n", "3", "--bound", "2", "--slack", "1", "--trials", "40", "--seed", "5"),
     "ddcd3d5d8f8db1d5deb507c5da0ee0a3b95b2ce0d3ffb5f9003d4d9212592e25"),
]


@pytest.mark.parametrize("params, digest", PROBE_DIGESTS, ids=["1-3-1", "1-4-1", "2-3-0", "1-3-2"])
def test_probe_stdout_digests(capsys, params, digest):
    code, out, _ = run_cli(capsys, "complex", "probe", *params)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _rp2_json():
    return {
        "vertices": list(range(6)),
        "maximal_simplices": [[v - 1 for v in f] for f in RP2_FACETS],
    }


def _random_2_complex_json(seed):
    rng = random.Random(seed)
    triangles = {tuple(sorted(rng.sample(range(14), 3))) for _ in range(30)}
    return {"vertices": list(range(14)), "maximal_simplices": sorted(triangles)}


def _h1_module_json(n, ring):
    from hforge.fimodules import houghton_h1_fimodule, module_to_json

    return module_to_json(houghton_h1_fimodule(n, ring))


# sha256 of stdout, pinned from the build whose fimodules kept its own
# matrix product and Fraction elimination, and whose chain complexes checked
# d o d = 0 at run time; the shared snf layer must reproduce it byte for byte.
STDOUT_DIGESTS = [
    ("complex-homology-rp2", ("complex", "homology"), _rp2_json,
     "ae94f320414d6b4ad5cd2c6efd2eb98dbe741e146854180fa8de746fb3832600"),
    ("complex-homology-random", ("complex", "homology"), lambda: _random_2_complex_json(5),
     "67f6a9191bb0c2a60cc6576d35ee7744cc23727409cffd17aed81b2fab3ab59f"),
    ("fimod-gendeg-Z", ("fimod", "gendeg"), lambda: _h1_module_json(8, "Z"),
     "b75808e49f0846c01681b83eb452a5c9f09df13cfdbb4a65f62464553bdea7a8"),
    ("fimod-report-Z", ("fimod", "report"), lambda: _h1_module_json(8, "Z"),
     "0675f61ca253546e3a23f358f0b8af6c9702e8ab78bea876d685b0bce9de605f"),
    ("fimod-gendeg-Q", ("fimod", "gendeg"), lambda: _h1_module_json(8, "Q"),
     "b75808e49f0846c01681b83eb452a5c9f09df13cfdbb4a65f62464553bdea7a8"),
    ("fimod-report-Q", ("fimod", "report"), lambda: _h1_module_json(8, "Q"),
     "0675f61ca253546e3a23f358f0b8af6c9702e8ab78bea876d685b0bce9de605f"),
]


@pytest.mark.parametrize(
    "verb, make_input, digest",
    [case[1:] for case in STDOUT_DIGESTS],
    ids=[case[0] for case in STDOUT_DIGESTS],
)
def test_stdout_digests(capsys, tmp_path, verb, make_input, digest):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(make_input()))
    code, out, _ = run_cli(capsys, *verb, str(path))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _piece(copy, base, dirs, offset, target):
    return {"copy": copy, "base": list(base), "dirs": list(dirs),
            "offset": list(offset), "target_copy": target}


def _map_json(k, pieces):
    return {"k": k, "m": 1, "n": 1, "pieces": pieces}


# sha256 of `element verify` stdout, pinned from the build whose validate
# checked the domain as a RayPartition of the full region and tested
# bijectivity on a canonicalised complement; the named gap or overlap, and
# the exit code, must not change.
VERIFY_DIGESTS = [
    ("broken-fixture", lambda: json.loads((FIXTURES / "broken.json").read_text()), 2,
     "7124b6b8265af8403b2d7361762bbc0bb47b07fe899ffa01cc440c47ca32685b"),
    ("domain-gap",
     lambda: _map_json(1, [_piece(1, (1,), (), (0,), 1), _piece(1, (3,), (1,), (0,), 1)]), 2,
     "41384605bd450411ddb34d606e0075b87f91e519d62912ec0315b93930760d3d"),
    ("image-overlap",
     lambda: _map_json(1, [_piece(1, (1,), (), (1,), 1), _piece(1, (2,), (1,), (0,), 1)]), 2,
     "11c8d08f7237a2b4294ac07093e1f9884f40ddbb114599f3cffe189c2af5608d"),
    ("injective-not-onto", lambda: _map_json(1, [_piece(1, (1,), (1,), (1,), 1)]), 0,
     "72f125f7c6e0e1463a079087d39de80e2f3d6bfd4ae115a69ce2649d21990172"),
    # misses the cells at base (1,2) free in 2 and at (2,1) free in 1; the
    # report names the first in base-point order, (1,2)
    ("k2-two-gaps",
     lambda: _map_json(2, [_piece(1, (1, 1), (), (0, 0), 1), _piece(1, (2, 2), (1, 2), (0, 0), 1)]),
     2, "da75d353298acf604df97ef77fa8e170d452d009b2de43e0b1ecca2c2841c593"),
]


@pytest.mark.parametrize(
    "make_input, exit_code, digest",
    [case[1:] for case in VERIFY_DIGESTS],
    ids=[case[0] for case in VERIFY_DIGESTS],
)
def test_element_verify_digests(capsys, tmp_path, make_input, exit_code, digest):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(make_input()))
    code, out, _ = run_cli(capsys, "element", "verify", str(path))
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _elements(*specs):
    from hforge.houghton import random_element, random_injection

    return lambda: [random_element(*spec) if len(spec) == 4 else random_injection(*spec)
                    for spec in specs]


# sha256 of `element` stdout, pinned from the build whose compose split each
# moved canonical cell on a threshold grid and canonicalised the parts again.
# Seeds 9, 11, 12 and 17 draw grid threshold 3 at bound 3; the injections are
# (k, m, n, bound, seed) with m < n.
ELEMENT_DIGESTS = [
    ("compose-k2", "compose", _elements((2, 3, 3, 9), (2, 3, 3, 11)),
     "23f4ffc2b25bedc266ae9d41b9eb64b683fe28fe5cc007684201151dda4413d2"),
    ("compose-k3", "compose", _elements((3, 2, 3, 12), (3, 2, 3, 17)),
     "f4287d95082dac7226fe9e8fbdd6b73194c08588613784c96566ba6a007b12e8"),
    ("compose-injections", "compose", _elements((2, 3, 4, 3, 24), (2, 2, 3, 3, 25)),
     "8dcdcb3f4fbb1841e990a1ad87afa23eb4a3e5d6dea6b0b1261c2d9427a087ac"),
    ("invert-k2", "invert", _elements((2, 3, 3, 9)),
     "5c288a763cc7a828cb442b93fa253a454517fea7398b8a5db9caa57baef8a51c"),
    ("invert-k3", "invert", _elements((3, 2, 3, 12)),
     "693bdbe187e148c29b4a79afd0aed161f9a5ffdb226e2bab0666445551072036"),
    ("decompose-k2", "decompose", _elements((2, 3, 3, 9)),
     "675703bd9413d1bd9fb2537a95722c6e20760535d5d51ed875a8f2d99dec1390"),
    ("decompose-k3", "decompose", _elements((3, 2, 3, 12)),
     "a8f5bd549ba62ec9c5c77396dc849232cab08ba5ca98ade00e32885f6184b07d"),
]


@pytest.mark.parametrize(
    "verb, make_inputs, digest",
    [case[1:] for case in ELEMENT_DIGESTS],
    ids=[case[0] for case in ELEMENT_DIGESTS],
)
def test_element_stdout_digests(capsys, tmp_path, verb, make_inputs, digest):
    from hforge.houghton import map_to_json

    paths = []
    for i, f in enumerate(make_inputs()):
        paths.append(tmp_path / f"map{i}.json")
        paths[-1].write_text(json.dumps(map_to_json(f)))
    code, out, _ = run_cli(capsys, "element", verb, *map(str, paths))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# A float, bool or string where the map format wants an integer.  Rounded
# down, the first case would read as the identity of N x [1].
NON_INTEGER_FIELDS = [
    ("base", {"base": [1.7], "offset": [0.4]}),
    ("k", {"k": True}),
    ("m", {"m": "1"}),
    ("n", {"n": 1.0}),
    ("copy", {"copy": True}),
    ("dirs", {"dirs": [1.0]}),
    ("offset", {"offset": ["0"]}),
    ("target_copy", {"target_copy": 1.5}),
]


@pytest.mark.parametrize("verb", ["verify", "invert"])
@pytest.mark.parametrize(
    "field, change", NON_INTEGER_FIELDS, ids=[c[0] for c in NON_INTEGER_FIELDS]
)
def test_map_parser_takes_integers_only(capsys, tmp_path, verb, field, change):
    piece = _piece(1, (1,), (1,), (0,), 1)
    data = _map_json(1, [piece])
    for key, value in change.items():
        (data if key in data else piece)[key] = value
    path = tmp_path / "map.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "element", verb, str(path))
    assert code == 2
    assert f"field '{field}' must" in out + err
    assert "Traceback" not in out + err


# A float or bool where the module format wants an integer, or an entry
# that is neither an integer nor a "p/q" string, in the rank-one module of
# N = 3.  Read through int() or Fraction(), each float or bool would give a
# valid module, and "1/0" would raise ZeroDivisionError.
NON_INTEGER_MODULE_FIELDS = [
    ("N", "Z", lambda d: d.update(N=3.9)),
    ("rank", "Z", lambda d: d["levels"][1].update(rank=1.5)),
    ("iota", "Z", lambda d: d["levels"][2].update(iota=[[True]])),
    ("iota", "Z", lambda d: d["levels"][2].update(iota=[[1.0]])),
    ("iota", "Q", lambda d: d["levels"][2].update(iota=[[0.1]])),
    ("iota", "Q", lambda d: d["levels"][2].update(iota=[["1/0"]])),
    ("transpositions", "Q", lambda d: d["levels"][2].update(transpositions=[[["1.0"]]])),
    ("presentation", "Z", lambda d: d["levels"][2].update(presentation=[[False]])),
]


@pytest.mark.parametrize("verb", ["validate", "gendeg"])
@pytest.mark.parametrize(
    "field, ring, change",
    NON_INTEGER_MODULE_FIELDS,
    ids=["N", "rank", "iota-true", "iota-1.0", "iota-0.1", "iota-1/0", "transpositions", "presentation"],
)
def test_module_parser_takes_integers_only(capsys, tmp_path, verb, field, ring, change):
    from hforge.fimodules import constant_module, module_to_json

    data = module_to_json(constant_module(3, ring=ring))
    change(data)
    path = tmp_path / "module.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "fimod", verb, str(path))
    assert code == 2
    assert f"field '{field}' must" in out + err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("simplices", [[["a"]], [[0.5, 1]], [[False, 1]]])
def test_complex_parser_takes_integer_indices_only(capsys, tmp_path, simplices):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"vertices": [1, 2], "maximal_simplices": simplices}))
    code, out, err = run_cli(capsys, "complex", "homology", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("validation failure: simplex entries must be integer vertex indices")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "data, field",
    [
        ({"vertices": "abc", "maximal_simplices": [[0, 1, 2]]}, "vertices"),
        ({"vertices": {"a": 0, "b": 1, "c": 2}, "maximal_simplices": [[0, 1, 2]]}, "vertices"),
        ({"vertices": [0, 1, 2], "maximal_simplices": "012"}, "maximal_simplices"),
        ({"vertices": [0, 1, 2], "maximal_simplices": [{"0": 1}]}, "maximal_simplices"),
        ({"vertices": [0, 1], "maximal_simplices": [[0, 1], 1]}, "maximal_simplices"),
    ],
    ids=["vertices-string", "vertices-object", "simplices-string", "simplex-object", "simplex-int"],
)
def test_complex_parser_takes_arrays_only(capsys, tmp_path, data, field):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "complex", "homology", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("validation failure: ")
    assert field in err and "must be a JSON array" in err


@pytest.mark.parametrize("verb", ["validate", "gendeg"])
@pytest.mark.parametrize(
    "level, field, value, message",
    [
        (1, "iota", "1", "field 'iota' must be a JSON array, got '1' at level 1"),
        (1, "iota", "", "field 'iota' must be a JSON array, got '' at level 1"),
        (1, "iota", ["10"], "field 'iota' must hold JSON arrays as rows, got '10' at level 1"),
        (1, "iota", [{"1": 2}], "field 'iota' must hold JSON arrays as rows, got {'1': 2} at level 1"),
        (2, "transpositions", "1", "field 'transpositions' must be a JSON array, got '1' at level 2"),
        (2, "transpositions", ["1"], "field 'transpositions' must be a JSON array, got '1' at level 2"),
        (2, "presentation", "1", "field 'presentation' must be a JSON array, got '1' at level 2"),
        (2, "presentation", {"1": [1]},
         "field 'presentation' must be a JSON array, got {'1': [1]} at level 2"),
    ],
    ids=["iota-string", "iota-empty-string", "iota-string-row", "iota-object-row",
         "transpositions-string", "transposition-string", "presentation-string",
         "presentation-object"],
)
def test_module_parser_takes_arrays_only(capsys, tmp_path, verb, level, field, value, message):
    """``constant_module(2)`` with a string or object where an array belongs: read
    element by element, each would pass as a matrix of ones."""
    from hforge.fimodules import constant_module, module_to_json

    data = module_to_json(constant_module(2))
    data["levels"][level][field] = value
    path = tmp_path / "module.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "fimod", verb, str(path))
    assert code == 2
    assert message in out + err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_path_exits_2(capsys, tmp_path, where):
    target = tmp_path / "missing" / "report.json" if where == "missing-directory" else tmp_path
    argv = ("element", "verify", str(FIXTURES / "generator.json"), "-o", str(target))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"validation failure: cannot write {target}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def _counting(monkeypatch, counts, target, name):
    """Replace ``target.name`` by a wrapper that counts its calls under ``name``."""
    real = getattr(target, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(target, name, wrapper)


def test_each_object_is_checked_once(capsys, tmp_path, monkeypatch):
    """Checks run at the parser, and arithmetic does not repeat them."""
    from collections import Counter

    import hforge.cli
    import hforge.complexes
    import hforge.fimodules
    import hforge.houghton
    from hforge.houghton import image_region, random_injection
    from hforge.rays import Region, region_complement

    counts = Counter()
    for module in (hforge.houghton, hforge.complexes, hforge.cli):
        if hasattr(module, "validate"):  # every binding of the one whole-map check
            _counting(monkeypatch, counts, module, "validate")
    _counting(monkeypatch, counts, Region, "__post_init__")
    for name in ("validate_fimodule", "surjectivity_table"):
        _counting(monkeypatch, counts, hforge.fimodules, name)
        if hasattr(hforge.cli, name):  # the CLI's own binding, where it imports one
            _counting(monkeypatch, counts, hforge.cli, name)

    def run(*argv):
        counts.clear()
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        return dict(counts)

    assert run("element", "invert", str(FIXTURES / "generator.json")) == {"validate": 1}
    assert run("element", "verify", str(FIXTURES / "generator.json")) == {"validate": 1}
    module = tmp_path / "module.json"
    module.write_text(json.dumps(_h1_module_json(5, "Z")))
    assert run("fimod", "gendeg", str(module)) == {"validate_fimodule": 1, "surjectivity_table": 1}
    assert run("fimod", "validate", str(module)) == {"validate_fimodule": 1}
    # one table: the truncation at the cut has the cut as its degree
    assert run("fimod", "report", str(module)) == {"validate_fimodule": 1, "surjectivity_table": 1}
    # a module the CLI built itself is not validated again
    assert run("fimod", "houghton-h1", "--N", "5") == {"surjectivity_table": 1}
    # the S vertices and the section are drawn and built by the CLI, so none is validated
    section = ("complex", "section-check", "--k", "1", "--n", "3", "--trials", "1", "--set-size", "3")
    assert run(*section) == {}

    reg = image_region(random_injection(2, 2, 3, 2, 7))
    counts.clear()
    region_complement(reg)
    assert counts["__post_init__"] == 1


def test_section_check_computes_each_image_ray_once(capsys, monkeypatch):
    """One trial maps each S piece once and each section vertex's one piece
    once; avoidance and the grid reuse them."""
    from hforge.houghton import HoughtonMap, random_injection

    real = HoughtonMap.image_ray
    calls = []

    def counted(self, piece):
        calls.append(piece)
        return real(self, piece)

    monkeypatch.setattr(HoughtonMap, "image_ray", counted)
    argv = ("complex", "section-check", "--k", "2", "--n", "4", "--set-size", "6", "--trials", "1")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["all_sections_verified"] is True
    # the CLI's default --bound 2 and --seed 0 draw the members of trial 0
    members = [random_injection(2, 1, 4, 2, seed=i + 1) for i in range(6)]
    assert len(calls) == sum(len(v.pieces) for v in members) + 4


def test_complex_homology_fixture(capsys):
    code, out, _ = run_cli(
        capsys, "complex", "homology", str(FIXTURES / "boundary_delta3.json")
    )
    assert code == 0
    report = json.loads(out)
    assert report["betti"] == [0, 0, 1]
    assert report["reduced_homology"][2] == {"degree": 2, "betti": 1, "torsion": []}

    # the fixture CI reads is the RP^2 of the pinned digests
    assert json.loads((FIXTURES / "rp2.json").read_text()) == _rp2_json()
    code, out, _ = run_cli(capsys, "complex", "homology", str(FIXTURES / "rp2.json"))
    assert code == 0
    assert json.loads(out)["reduced_homology"][1] == {"degree": 1, "betti": 0, "torsion": [2]}


def test_complex_wcm_fixture(capsys):
    code, out, _ = run_cli(
        capsys, "complex", "wcm", str(FIXTURES / "boundary_delta3.json"), "--target", "2"
    )
    assert code == 0
    assert json.loads(out)["wcm"] is True

    code, out, _ = run_cli(
        capsys, "complex", "wcm", str(FIXTURES / "boundary_delta3.json"), "--target", "3"
    )
    assert json.loads(out)["wcm"] is False


@pytest.mark.parametrize("verb, extra", [("homology", ()), ("wcm", ("--target", "1"))])
def test_complex_reads_the_build_sn_report(capsys, tmp_path, verb, extra):
    report = tmp_path / "sn131.json"
    build = ("complex", "build-sn", "--k", "1", "--n", "3", "--bound", "1", "-o", str(report))
    assert run_cli(capsys, *build)[0] == 0
    bare = tmp_path / "complex.json"
    bare.write_text(json.dumps(json.loads(report.read_text())["complex"]))
    code, from_report, _ = run_cli(capsys, "complex", verb, str(report), *extra)
    assert code == 0
    assert (code, from_report) == run_cli(capsys, "complex", verb, str(bare), *extra)[:2]


def test_complex_homology_of_the_141_truncation(capsys, tmp_path):
    report = tmp_path / "sn141.json"
    build = ("complex", "build-sn", "--k", "1", "--n", "4", "--bound", "1", "-o", str(report))
    assert run_cli(capsys, *build)[0] == 0
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "complex", "homology", str(report))
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out)["betti"] == [0, 0, 7463]
    assert all(e["torsion"] == [] for e in json.loads(out)["reduced_homology"])
    assert elapsed < 30, f"(1,4,1) homology took {elapsed:.1f} s"


def test_complex_wcm_of_the_132_truncation(capsys, tmp_path):
    report = tmp_path / "sn132.json"
    build = ("complex", "build-sn", "--k", "1", "--n", "3", "--bound", "2", "-o", str(report))
    assert run_cli(capsys, *build)[0] == 0
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "complex", "wcm", str(report), "--target", "1")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out) == {"target": 1, "wcm": True, "violation": None}
    assert elapsed < 30, f"(1,3,2) wcm took {elapsed:.1f} s"


def test_complex_section_check(capsys):
    code, out, _ = run_cli(
        capsys,
        "complex",
        "section-check",
        "--k",
        "1",
        "--n",
        "3",
        "--trials",
        "5",
        "--set-size",
        "3",
        "--seed",
        "4",
    )
    assert code == 0
    assert json.loads(out)["all_sections_verified"] is True


@pytest.mark.parametrize("k, n", [(k, n) for k in (1, 2) for n in range(1, 5)])
def test_section_check_matches_the_checking_section_functions(capsys, k, n):
    """section-check draws its members and builds its section unchecked; each
    trial's ``ok`` is what the validating public functions say on the same members."""
    from hforge.complexes import build_s_section, verify_s_section
    from hforge.houghton import random_injection

    for set_size, seed in itertools.product(range(7), (0, 5, 11)):
        argv = ("--k", str(k), "--n", str(n), "--set-size", str(set_size), "--seed", str(seed))
        code, out, _ = run_cli(capsys, "complex", "section-check", *argv, "--trials", "2")
        trials = json.loads(out)["trials"]
        assert code == (0 if all(t["ok"] for t in trials) else 2)
        for t in trials:
            # the CLI's seed rule, at its default --bound 2
            members = [
                random_injection(k, 1, n, 2, seed=seed + 7 * t["trial"] + i + 1)
                for i in range(set_size)
            ]
            assert t["ok"] == verify_s_section(k, n, members, build_s_section(k, n, members))[0]


def test_complex_probe(capsys):
    code, out, _ = run_cli(
        capsys,
        "complex",
        "probe",
        "--k",
        "1",
        "--n",
        "3",
        "--bound",
        "1",
        "--slack",
        "3",
        "--trials",
        "20",
        "--seed",
        "11",
    )
    assert code == 0
    report = json.loads(out)
    assert report["connected_pairs"] == 20
    assert report["component_betti0"] == 0


def test_fimod_commands(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "fimod", "houghton-h1", "--N", "6")
    assert code == 0
    report = json.loads(out)
    assert report["generation_degree"] == 2

    module_path = tmp_path / "module.json"
    module_path.write_text(json.dumps(report["module"]))
    code, out, _ = run_cli(capsys, "fimod", "gendeg", str(module_path))
    assert code == 0
    assert json.loads(out)["generation_degree"] == 2

    code, out, _ = run_cli(capsys, "fimod", "report", str(module_path))
    assert code == 0
    rep = json.loads(out)
    assert rep["cut_level"] == 2
    assert "caveat" in rep

    code, out, _ = run_cli(capsys, "fimod", "validate", str(module_path))
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_fimod_constant_and_injected_fixtures(capsys, tmp_path):
    from hforge.fimodules import Level, TruncatedFIModule, constant_module, module_to_json

    const_path = tmp_path / "constant.json"
    const_path.write_text(json.dumps(module_to_json(constant_module(6))))
    code, out, _ = run_cli(capsys, "fimod", "gendeg", str(const_path))
    assert code == 0
    assert json.loads(out)["generation_degree"] == 0

    v = constant_module(6)
    lv = v.levels[5]
    injected = TruncatedFIModule(
        6,
        "Z",
        v.levels[:5] + (Level(lv.rank, ((0,),), lv.transpositions),) + v.levels[6:],
    )
    injected_path = tmp_path / "injected.json"
    injected_path.write_text(json.dumps(module_to_json(injected)))
    code, out, _ = run_cli(capsys, "fimod", "report", str(injected_path))
    assert code == 0
    rep = json.loads(out)
    assert rep["cut_level"] == 5
    assert rep["per_level_surjective"]["5"] is False


def test_fimod_validate_rejects_bad(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"N": 0, "ring": "Z", "levels": [{"rank": 1, "iota": None, "transpositions": [[[2]]]}]}))
    code, out, _ = run_cli(capsys, "fimod", "validate", str(bad))
    assert code == 2


@pytest.mark.parametrize("presentation", [[], [[1], [2]]], ids=["no-rows", "two-rows"])
def test_fimod_gendeg_rejects_misshapen_presentation(capsys, tmp_path, presentation):
    from hforge.fimodules import constant_module, module_to_json

    data = module_to_json(constant_module(3))
    data["levels"][2]["presentation"] = presentation
    path = tmp_path / "module.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "fimod", "gendeg", str(path))
    assert code == 2
    assert "presentation rows must number 1" in out + err
    assert "Traceback" not in out + err


def test_usage_errors_exit_1(capsys):
    assert run_cli(capsys, "element", "compose", "only-one.json")[0] == 1
    assert run_cli(capsys, "nonsense")[0] == 1
    assert run_cli(capsys, "complex", "homology")[0] == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("complex", "section-check", "--set-size", "-2"),
            "--trials and --set-size must be >= 0",
        ),
        (("element", "compose", "one.json"), "compose needs exactly two element files"),
        (
            ("complex", "probe", "--k", "1", "--n", "3", "--bound", "1", "--slack", "-9",
             "--trials", "3"),
            "--slack must be >= 0",
        ),
    ],
    ids=["section-check", "compose", "probe-slack"],
)
def test_usage_errors_name_the_problem(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage: hforge ")
    assert err.endswith(f"\nhforge: error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("complex", "build-sn", "--n", "0"), "need n >= 1 and bound >= 0"),
        (("complex", "build-sn", "--k", "0"), "need k >= 1"),
        (("complex", "probe", "--bound", "-1", "--trials", "1"), "need n >= 1 and bound >= 0"),
        (
            ("complex", "section-check", "--n", "0", "--bound", "-1", "--set-size", "0"),
            "need n >= 1 and bound >= 0",
        ),
        (
            ("complex", "section-check", "--n", "0", "--bound", "-1", "--trials", "0"),
            "need n >= 1 and bound >= 0",
        ),
        (
            ("complex", "section-check", "--n", "0", "--set-size", "1", "--trials", "1"),
            "need n >= 1 and bound >= 0",
        ),
        (("complex", "section-check", "--bound", "-1", "--trials", "0"), "need n >= 1 and bound >= 0"),
        (("complex", "section-check", "--k", "0", "--set-size", "0"), "need k >= 1"),
    ],
    ids=[
        "build-sn-n", "build-sn-k", "probe-bound", "section-check-set-size-0",
        "section-check-trials-0", "section-check-set-size-1", "section-check-bound",
        "section-check-k",
    ],
)
def test_truncation_parameters_are_checked_before_any_work(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"validation failure: {message}\n")


def test_size_limit_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("HFORGE_SIZE_LIMIT", "5")
    code, _, err = run_cli(
        capsys, "complex", "build-sn", "--k", "1", "--n", "2", "--bound", "1"
    )
    assert code == 3
    assert "size limit" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("complex", "probe", "--k", "1", "--n", "3", "--bound", "1", "--trials", "-3"),
        ("complex", "section-check", "--k", "1", "--n", "3", "--trials", "1", "--set-size", "-2"),
        ("complex", "section-check", "--k", "1", "--n", "3", "--trials", "-1"),
    ],
)
def test_negative_counts_are_usage_errors(capsys, argv):
    assert run_cli(capsys, *argv)[:2] == (1, "")


def test_negative_size_limit_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("HFORGE_SIZE_LIMIT", "-1")
    code, out, err = run_cli(
        capsys, "complex", "build-sn", "--k", "1", "--n", "2", "--bound", "1"
    )
    assert (code, out) == (2, "")
    assert "HFORGE_SIZE_LIMIT must be an integer >= 0" in err


def test_missing_file_exit_2(capsys):
    code, _, _ = run_cli(capsys, "element", "verify", "no-such-file.json")
    assert code == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"k": ' + "9" * 5000 + ', "m": 1, "n": 1, "pieces": []}',
        "[" * 100_000,
    ],
    ids=["integer-past-digit-limit", "deep-nesting"],
)
def test_unparsable_json_exits_2(capsys, tmp_path, text):
    path = tmp_path / "map.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "element", "verify", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("validation failure:") and "not valid JSON" in err


def test_element_verify_high_dimension(capsys, tmp_path):
    # the threshold-0 grid of N^40 is one cell; nothing may walk 2^40 subsets
    k = 40
    path = tmp_path / "map.json"
    path.write_text(json.dumps(_map_json(k, [])))
    code, out, _ = run_cli(capsys, "element", "verify", str(path))
    assert code == 2
    (problem,) = json.loads(out)["problems"]
    assert problem.startswith("domain is not a ray partition: uncovered cell")
    identity = _piece(1, (1,) * k, range(1, k + 1), (0,) * k, 1)
    path.write_text(json.dumps(_map_json(k, [identity])))
    code, out, _ = run_cli(capsys, "element", "verify", str(path))
    assert code == 0
    assert json.loads(out) == {"bijective": True, "problems": [], "valid": True}


def test_output_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        run_cli(
            capsys,
            "complex",
            "probe",
            "--k", "1", "--n", "3", "--bound", "1", "--slack", "3",
            "--trials", "10", "--seed", "3",
            "-o", str(target),
        )
    assert a.read_bytes() == b.read_bytes()


def test_one_parser_serves_every_call(capsys, monkeypatch, tmp_path):
    """Calls in one process answer as they would on a freshly built parser:
    flags of one call (``--include-top``, ``--format``, ``-o``) do not leak
    into the next, and the parser is built once."""
    built = []
    build = cli_module._build_parser

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli_module, "_build_parser", counting_build)
    monkeypatch.setattr(cli_module, "_PARSER", None)
    target = tmp_path / "report.json"
    sn = ("complex", "build-sn", "--k", "1", "--n", "2", "--bound", "1")
    calls = [
        ("nonsense",),
        ("complex", "homology"),
        (*sn, "--include-top"),
        sn,
        (*sn, "--format", "text"),
        (*sn, "-o", str(target)),
        sn,
        ("element", "invert", str(FIXTURES / "generator.json")),
    ]

    def run(argv):
        target.unlink(missing_ok=True)
        result = run_cli(capsys, *argv)
        return result, target.read_bytes() if target.exists() else None

    reused = [run(argv) for argv in calls]
    assert len(built) == 1
    for argv, got in zip(calls, reused):
        monkeypatch.setattr(cli_module, "_PARSER", None)
        assert run(argv) == got, argv
    assert len(built) == 1 + len(calls)
    assert reused[2][0][1] != reused[3][0][1]  # --include-top did change the report
    proc = subprocess.run(
        [sys.executable, "-c", "import hforge.cli as c; print(c._PARSER)"],
        capture_output=True,
        text=True,
    )
    assert proc.stdout == "None\n", proc.stderr  # not built at import


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hforge.cli", "element", "project",
         str(FIXTURES / "identity_n2.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["sigma"] == [1, 2]
    assert_json_dumps_bytes(proc.stdout)


def test_cross_process_byte_identity():
    # The child imports hforge from wherever this process did, so it runs the
    # same code whether that is a source tree or an installed package.
    import_root = str(Path(hforge.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(
        p for p in (import_root, os.environ.get("PYTHONPATH")) if p
    )
    # (1, 2, 1) has only vertices; (1, 3, 1) has 360 edges whose ordering a
    # hash seed could disturb.
    for n in ("2", "3"):
        outputs = []
        for hash_seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "hforge.cli", "complex", "build-sn",
                 "--k", "1", "--n", n, "--bound", "1"],
                capture_output=True,
                env={
                    "PYTHONHASHSEED": hash_seed,
                    "PATH": "/usr/bin:/bin",
                    "PYTHONPATH": pythonpath,
                },
                cwd=str(FIXTURES.parent.parent),
            )
            assert proc.returncode == 0, proc.stderr.decode(errors="replace")
            assert_json_dumps_bytes(proc.stdout)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], f"build-sn --n {n} differs across hash seeds"


def test_element_verify_without_pieces_answers_at_once(capsys, tmp_path):
    """A map with no pieces leaves all of N^k uncovered.  The report says so
    without fitting a grid or writing out k coordinates, so a huge k costs
    nothing; ``complex homology`` reads such a vertex label the same way."""
    k = 10**9
    path = tmp_path / "map.json"
    path.write_text(json.dumps(_map_json(k, [])))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "element", "verify", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert json.loads(out)["problems"] == [
        f"domain is not a ray partition: uncovered cell N^{k} on copy 1: the map has no pieces"
    ]
    complex_path = tmp_path / "complex.json"
    complex_path.write_text(json.dumps(
        {"vertices": [_map_json(k, [])], "maximal_simplices": [[0]]}
    ))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "complex", "homology", str(complex_path))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert f"uncovered cell N^{k} on copy 1" in err


def test_element_verify_far_gap_answers_quickly():
    """A plane pinned at z = 1 and an orthant from z = 3000 leave the layers
    z = 2..2999 uncovered.  The report names the same cell as for an orthant
    from z = 30, and the check does not walk the (t+1)^3 threshold grid."""
    proc = subprocess.run(
        [sys.executable, "-m", "hforge.cli", "element", "verify", str(FIXTURES / "far_gap.json")],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout)["problems"] == [
        "domain is not a ray partition: uncovered cell Ray(base=(1, 1, 2), dirs=()) on copy 1"
    ]
    assert_json_dumps_bytes(proc.stdout)


def test_far_planes_invert_and_compose_answer_quickly():
    """``fixtures/far_planes.json`` writes the identity of N^3 as the planes
    z = 1..79 and the orthant from z = 80.  Its inverse and its square are the
    one-piece identity, read off a fitted grid of 80 cells, not the 80^3
    cells of its threshold grid."""
    path = str(FIXTURES / "far_planes.json")
    identity = {
        "k": 3, "m": 1, "n": 1,
        "pieces": [{"copy": 1, "base": [1, 1, 1], "dirs": [1, 2, 3], "offset": [0, 0, 0],
                    "target_copy": 1}],
    }
    for argv in (["invert", path], ["compose", path, path]):
        proc = subprocess.run(
            [sys.executable, "-m", "hforge.cli", "element", *argv],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == identity, argv
        assert_json_dumps_bytes(proc.stdout)


# -- mutated input files through every file-reading verb -----------------------

# far bases and huge integers stay out until the canonical grid has a size guard
_FUZZ_FIXTURES = ("boundary_delta3.json", "broken.json", "generator.json", "identity_n2.json",
                  "rp2.json")
_FUZZ_SWAPS = (True, False, 2.5, None, "1", "x", [], [1], {}, {"k": 1})
_FILE_VERBS = {
    "element": ("verify", "compose", "invert", "project", "decompose", "tvector"),
    "complex": ("homology", "wcm"),
    "fimod": ("validate", "gendeg", "report"),
}


def _mutate_json(data, draw):
    """A copy of ``data`` with one node changed: a field or entry dropped or
    duplicated, a value swapped for another type, or an integer nudged by up to 2."""
    from hypothesis import strategies as st

    data = json.loads(json.dumps(data))
    parents = []

    def walk(node):
        if isinstance(node, (dict, list)) and node:
            parents.append(node)
            for child in (node.values() if isinstance(node, dict) else node):
                walk(child)

    walk(data)
    if not parents:
        return draw(st.sampled_from(_FUZZ_SWAPS))
    node = draw(st.sampled_from(parents))
    key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
    kind = draw(st.sampled_from(("drop", "duplicate", "swap", "nudge")))
    if kind == "drop":
        del node[key]
    elif kind == "duplicate" and isinstance(node, list):
        node.insert(key, json.loads(json.dumps(node[key])))
    elif kind == "duplicate":  # a field takes a copy of another field's value
        node[key] = json.loads(json.dumps(node[draw(st.sampled_from(sorted(node)))]))
    elif kind == "nudge" and type(node[key]) is int:
        node[key] += draw(st.sampled_from((-2, -1, 1, 2)))
    else:
        node[key] = draw(st.sampled_from(_FUZZ_SWAPS))
    return data


def _fuzz_inputs():
    inputs = [json.loads((FIXTURES / name).read_text()) for name in _FUZZ_FIXTURES]
    return inputs + [_h1_module_json(3, "Z"), _h1_module_json(3, "Q")]


def test_mutated_input_files_never_raise():
    """Every file-reading verb answers a mutated fixture with an exit code of 0-3 and
    no traceback: whatever is wrong is reported, never raised."""
    import contextlib
    import io
    import tempfile
    from unittest import mock

    from hypothesis import given, settings, strategies as st

    generator = str(FIXTURES / "generator.json")

    @given(st.sampled_from(_fuzz_inputs()), st.integers(1, 3), st.data())
    @settings(max_examples=200, deadline=None)
    def check(data, rounds, draw):
        for _ in range(rounds):
            data = _mutate_json(data, draw.draw)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "input.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            for group, verbs in _FILE_VERBS.items():
                for verb in verbs:
                    files = [path, generator] if verb == "compose" else [path]
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main([group, verb, *files])
                    assert code in (0, 1, 2, 3), (group, verb, data)
                    assert "Traceback" not in err.getvalue(), (group, verb, data)
                    if out.getvalue():
                        assert_json_dumps_bytes(out.getvalue())

    with mock.patch.dict(os.environ, {"HFORGE_SIZE_LIMIT": "2000"}):
        check()


# -- the JSON writer against json.dumps -----------------------------------------


class _List(list):
    pass


class _Dict(dict):
    pass


def _dumps_outcome(write, data):
    """The text ``write`` gives for ``data``, or the type and words of what it raised."""
    try:
        return write(data)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def test_json_writer_matches_json_dumps():
    """``cli._json_text`` gives ``json.dumps(x, sort_keys=True, indent=2)`` byte for
    byte, and raises what it raises for a key or a value that ``json`` rejects."""
    import enum

    from hypothesis import given, settings, strategies as st

    Level = enum.IntEnum("Level", "LOW HIGH")
    strings = st.text() | st.text(alphabet='"\\/\x00\x1f\x7fé \ud800\U0001f600ab')
    keys = st.one_of(
        strings, st.integers(), st.sampled_from([True, False, None, 1.5, float("nan"), (1, 2)])
    )
    scalars = st.one_of(
        st.integers(),
        st.sampled_from([2**64, -(2**64), 10**1000, -(10**1000), 0, -1, Level.HIGH]),
        st.booleans(),
        st.none(),
        strings,
        st.floats(),
        st.sampled_from([object(), {1, 2}, b"x"]),
    )

    def containers(children):
        return st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.lists(children, max_size=4).map(_List),
            st.lists(st.integers(), max_size=6),
            st.lists(st.lists(st.integers() | st.booleans(), max_size=4), max_size=4),
            st.dictionaries(strings, children, max_size=4),
            st.dictionaries(st.integers(), children, max_size=4),
            st.dictionaries(strings, children, max_size=4).map(_Dict),
            st.dictionaries(keys, children, max_size=3),
        )

    @given(st.recursive(scalars, containers, max_leaves=25))
    @settings(max_examples=800, deadline=None)
    def check(data):
        assert _dumps_outcome(cli_module._json_text, data) == _dumps_outcome(
            lambda x: json.dumps(x, sort_keys=True, indent=2), data
        )

    check()
