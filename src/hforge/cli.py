"""Batch command-line front end.

Three command groups wrap the library: ``element`` for group arithmetic on
stored maps, ``complex`` for building truncations, homology, weak
Cohen-Macaulay checks, section spot checks and connectivity probes, and
``fimod`` for module validation and generation-degree reports.  All input
and output is JSON (``--format text`` renders the same data for reading);
identical inputs, flags and seeds produce byte-identical output.

Exit codes: 0 success, 1 usage, 2 validation failure, 3 size limit.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .complexes import (
    DEFAULT_SIZE_LIMIT,
    _check_truncation,
    build_sn_truncated,
    complex_from_json,
    complex_to_json,
    connectivity_probe,
    homology_to_json,
    reduced_homology,
    _s_section,
    _verify_s_section,
    wcm_check,
)
from .errors import SizeLimitError, ValidationError
from .fimodules import (
    _fg_report,
    degree_from_table,
    houghton_h1_fimodule,
    module_from_json,
    module_to_json,
    surjectivity_table,
)
from .houghton import (
    MapDiagnostics,
    _image_rays,
    _parse_map,
    compose,
    decompose,
    map_from_json,
    map_to_json,
    random_injection,
    sigma_projection,
    translation_vector,
    validate,
)
from .houghton import inverse as invert_map

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_SIZE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _size_limit() -> int:
    env = os.environ.get("HFORGE_SIZE_LIMIT")
    if env is None:
        return DEFAULT_SIZE_LIMIT
    try:
        limit = int(env)
    except ValueError:
        limit = -1
    if limit < 0:
        raise ValidationError(f"HFORGE_SIZE_LIMIT must be an integer >= 0, got {env!r}")
    return limit


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError is a ValueError; so is an integer literal past the
        # interpreter's digit limit, and deep nesting exhausts the recursion
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _load_complex(path: str, limit: int):
    """A complex file, or the ``complex`` member of a build-sn report."""
    data = _load_json(path)
    if isinstance(data, dict) and "complex" in data:
        data = data["complex"]
    return complex_from_json(data, size_limit=limit)


def _render_text(data, indent=0) -> str:
    pad = "  " * indent
    if isinstance(data, dict):
        lines = []
        for key in data:
            value = data[key]
            if isinstance(value, (dict, list)) and value and not _is_scalar_list(value):
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_render_text(value)}")
        return "\n".join(lines)
    if isinstance(data, list):
        if _is_scalar_list(data):
            return "[" + ", ".join(str(x) for x in data) + "]"
        return "\n".join(_render_text(item, indent) for item in data)
    return str(data)


def _is_scalar_list(value) -> bool:
    return isinstance(value, list) and all(
        not isinstance(x, (dict, list)) for x in value
    )


_INT = frozenset({int})


def _json_text(data) -> str:
    """``json.dumps(data, sort_keys=True, indent=2)``, byte for byte, without the
    pure-Python encoder that ``indent`` makes ``json`` fall back to."""
    out: list[str] = []
    _write_json(data, "\n", out)
    return "".join(out)


def _write_json(x, pad: str, out: list[str]) -> None:
    """Append the text of ``x`` at indent ``pad`` to ``out``, testing types in
    ``json``'s order; bool, None, floats and what ``json`` rejects go to ``json.dumps``.
    A list of plain ints, and each such row of a list, is written as one join."""
    if isinstance(x, str):
        out.append(encode_basestring_ascii(x))
    elif isinstance(x, int) and not isinstance(x, bool):
        out.append(int.__repr__(x))
    elif not isinstance(x, (list, tuple, dict)):
        out.append(json.dumps(x))
    elif not x:
        out.append("{}" if isinstance(x, dict) else "[]")
    elif isinstance(x, dict):
        inner = pad + "  "
        lead = "{" + inner
        for key, value in sorted(x.items()):
            if not isinstance(key, str):
                if not isinstance(key, (int, float)) and key is not None:
                    name = key.__class__.__name__
                    raise TypeError(f"keys must be str, int, float, bool or None, not {name}")
                key = json.dumps(key)
            out.append(lead + encode_basestring_ascii(key) + ": ")
            lead = "," + inner
            if type(value) is int:
                out.append(int.__repr__(value))
            else:
                _write_json(value, inner, out)
        out.append(pad + "}")
    else:
        inner = pad + "  "
        if set(map(type, x)) == _INT:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, x)) + pad + "]")
            return
        deeper = inner + "  "
        lead = "[" + inner
        for item in x:
            if type(item) is list and item and set(map(type, item)) == _INT:
                row = ("," + deeper).join(map(int.__repr__, item))
                out.append(lead + "[" + deeper + row + inner + "]")
            else:
                out.append(lead)
                _write_json(item, inner, out)
            lead = "," + inner
        out.append(pad + "]")


def _emit(data, args) -> None:
    if args.format == "json":
        text = _json_text(data) + "\n"
    else:
        text = _render_text(data) + "\n"
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


# -- element ------------------------------------------------------------------


def _cmd_element(args) -> int:
    verb = args.verb
    if verb == "verify":
        data = _load_json(args.files[0])
        try:
            diag = validate(_parse_map(data))
        except ValidationError as exc:
            diag = MapDiagnostics(False, False, (str(exc),))
        if not diag.valid:
            _emit({"valid": False, "problems": ["; ".join(diag.problems)]}, args)
            return EXIT_VALIDATION
        _emit({"valid": True, "bijective": diag.bijective, "problems": []}, args)
        return EXIT_OK
    maps = [map_from_json(_load_json(path)) for path in args.files]
    if verb == "compose":
        first, second = maps
        _emit(map_to_json(compose(first, second)), args)
    elif verb == "invert":
        _emit(map_to_json(invert_map(maps[0])), args)
    elif verb == "project":
        _emit({"sigma": list(sigma_projection(maps[0]).images)}, args)
    elif verb == "decompose":
        kernel, sigma = decompose(maps[0])
        _emit(
            {"kernel_element": map_to_json(kernel), "sigma": list(sigma.images)},
            args,
        )
    elif verb == "tvector":
        _emit(list(translation_vector(maps[0])), args)
    return EXIT_OK


# -- complex ------------------------------------------------------------------


def _cmd_complex(args) -> int:
    limit = _size_limit()
    verb = args.verb
    if verb == "build-sn":
        k = build_sn_truncated(
            args.k, args.n, args.bound, include_top=args.include_top, size_limit=limit
        )
        report = {
            "k": args.k,
            "n": args.n,
            "bound": args.bound,
            "include_top": args.include_top,
            "vertex_count": len(k.vertices),
            "simplex_counts": {str(d): len(k.simplices[d]) for d in sorted(k.simplices)},
            "complex": complex_to_json(k),
        }
        _emit(report, args)
    elif verb == "homology":
        k = _load_complex(args.files[0], limit)
        hom = reduced_homology(k)
        _emit(
            {
                "empty": hom.is_empty,
                "reduced_homology": homology_to_json(hom),
                "betti": [b for _, b, _ in hom.entries],
            },
            args,
        )
    elif verb == "wcm":
        k = _load_complex(args.files[0], limit)
        ok, why = wcm_check(k, args.target)
        _emit({"target": args.target, "wcm": ok, "violation": why}, args)
        return EXIT_OK
    elif verb == "section-check":
        _check_truncation(args.k, args.n, args.bound)
        trials = []
        all_ok = True
        for t in range(args.trials):
            members = [
                random_injection(args.k, 1, args.n, args.bound, seed=args.seed + 7 * t + i + 1)
                for i in range(args.set_size)
            ]
            # drawn here, so valid by construction and not validated again
            images = [_image_rays(v) for v in members]
            section = _s_section(args.k, args.n, members, images)
            ok, _ = _verify_s_section(args.k, args.n, members, section, images)
            all_ok = all_ok and ok
            trials.append({"trial": t, "set_size": args.set_size, "ok": ok})
        _emit(
            {
                "k": args.k,
                "n": args.n,
                "trials": trials,
                "all_sections_verified": all_ok,
            },
            args,
        )
        return EXIT_OK if all_ok else EXIT_VALIDATION
    elif verb == "probe":
        report = connectivity_probe(
            args.k,
            args.n,
            args.bound,
            args.slack,
            trials=args.trials,
            seed=args.seed,
            size_limit=limit,
        )
        _emit(report, args)
    return EXIT_OK


# -- fimod --------------------------------------------------------------------


def _cmd_fimod(args) -> int:
    verb = args.verb
    if verb == "houghton-h1":
        module = houghton_h1_fimodule(args.module_bound, ring=args.ring)
        report = {
            "N": args.module_bound,
            "ring": args.ring,
            # built here, so not validated again as generation_degree would
            "generation_degree": degree_from_table(surjectivity_table(module)),
            "module": module_to_json(module),
        }
        _emit(report, args)
        return EXIT_OK
    data = _load_json(args.files[0])
    if verb == "validate":
        try:
            module_from_json(data)
        except ValidationError as exc:
            _emit({"valid": False, "problems": [str(exc)]}, args)
            return EXIT_VALIDATION
        _emit({"valid": True, "problems": []}, args)
        return EXIT_OK
    module = module_from_json(data)
    if verb == "gendeg":
        table = surjectivity_table(module)
        _emit(
            {
                "generation_degree": degree_from_table(table),
                "per_level_surjective": {str(n): ok for n, ok in sorted(table.items())},
            },
            args,
        )
    elif verb == "report":
        rep = _fg_report(module)
        rep["per_level_surjective"] = {
            str(n): ok for n, ok in sorted(rep["per_level_surjective"].items())
        }
        _emit(rep, args)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="hforge", description=__doc__)
    sub = parser.add_subparsers(dest="group", required=True)

    def common(p):
        p.add_argument("-o", "--output", default=None, help="write the report here")
        p.add_argument("--format", choices=("json", "text"), default="json")

    element = sub.add_parser("element", help="group arithmetic on stored elements")
    element.add_argument(
        "verb", choices=("verify", "compose", "invert", "project", "decompose", "tvector")
    )
    element.add_argument("files", nargs="+", help="element JSON files")
    common(element)

    cplx = sub.add_parser("complex", help="truncations, homology, sections, probes")
    cplx.add_argument(
        "verb", choices=("build-sn", "homology", "wcm", "section-check", "probe")
    )
    cplx.add_argument("files", nargs="*", help="complex JSON files")
    cplx.add_argument("--k", type=int, default=1)
    cplx.add_argument("--n", type=int, default=2)
    cplx.add_argument("--bound", type=int, default=2)
    cplx.add_argument("--slack", type=int, default=3)
    cplx.add_argument("--trials", type=int, default=100)
    cplx.add_argument("--seed", type=int, default=0)
    cplx.add_argument("--set-size", type=int, default=4, dest="set_size")
    cplx.add_argument("--target", type=int, default=2)
    cplx.add_argument("--include-top", action="store_true", dest="include_top")
    common(cplx)

    fimod = sub.add_parser("fimod", help="truncated FI-module reports")
    fimod.add_argument("verb", choices=("validate", "gendeg", "report", "houghton-h1"))
    fimod.add_argument("files", nargs="*", help="module JSON files")
    fimod.add_argument("--N", type=int, default=6, dest="module_bound")
    fimod.add_argument("--ring", choices=("Z", "Q"), default="Z")
    common(fimod)
    return parser


_PARSER: _Parser | None = None


def main(argv=None) -> int:
    """Run one command; returns its exit code.

    The parser is built on the first call and kept for the life of the
    process: ``parse_args`` returns a fresh namespace and leaves the parser
    as it was, so later calls parse exactly as a new parser would.  It is not
    built at import, which keeps ``import hforge.cli`` cheap.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    parser = _PARSER
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.group == "element":
            if args.verb == "compose" and len(args.files) != 2:
                parser.error("compose needs exactly two element files")
            if args.verb != "compose" and len(args.files) != 1:
                parser.error(f"{args.verb} needs exactly one element file")
            return _cmd_element(args)
        if args.group == "complex":
            if args.verb in ("homology", "wcm") and len(args.files) != 1:
                parser.error(f"{args.verb} needs exactly one complex file")
            if min(args.trials, args.set_size) < 0:
                parser.error("--trials and --set-size must be >= 0")
            if args.slack < 0:
                parser.error("--slack must be >= 0")
            return _cmd_complex(args)
        if args.group == "fimod":
            if args.verb != "houghton-h1" and len(args.files) != 1:
                parser.error(f"{args.verb} needs exactly one module file")
            return _cmd_fimod(args)
        return EXIT_USAGE
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ValidationError as exc:
        sys.stderr.write(f"validation failure: {exc}\n")
        return EXIT_VALIDATION
    except SizeLimitError as exc:
        sys.stderr.write(f"size limit: {exc}\n")
        return EXIT_SIZE


if __name__ == "__main__":
    raise SystemExit(main())
