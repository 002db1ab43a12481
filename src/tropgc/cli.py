"""Command-line surface: chamber calculus, homology, spectral sequences.

Every command writes exactly one JSON document to stdout (keys sorted, so
identical invocations are byte-identical); --pretty adds an indented copy on
stderr, and each warning is one "warning: ..." line on stderr. Exit codes:
0 success, 1 domain error, 2 usage or parse error, 3 internal error (a
failed consistency check, such as a boundary that does not square to zero
or a contraction target missing from the basis; nothing is written to
stdout).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from typing import Optional, Sequence

from .chambers import (DomainError, WeightDatum, compare_up_to_symmetry,
                       enumerate_chambers, format_rational, parse_weights,
                       signature, signature_json)
from .complexes import (build_cellular_complex, build_graph_complex,
                        build_relative_complex, homology, split_AB)
from .spectral import filtered_from_raw, parse_filtration_json, spectral_json

HOMOLOGY_KINDS = ("graph", "cellular", "a-part", "b-part", "relative")


def _emit(payload: dict, pretty: bool) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True,
                                separators=(",", ":")) + "\n")
    if pretty:
        sys.stderr.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def _datum(g: int, text: str) -> WeightDatum:
    return WeightDatum(g, parse_weights(text))


def _weights_list(a: WeightDatum) -> list[str]:
    return [format_rational(x) for x in a.entries]


def _cmd_chambers(args: argparse.Namespace) -> dict:
    if args.chambers_cmd == "compare":
        res = compare_up_to_symmetry(_datum(args.g, args.a),
                                     _datum(args.g, args.b))
        return {"relation": res.relation,
                "witness": list(res.witness) if res.witness else None}
    if args.chambers_cmd == "signature":
        a = _datum(args.g, args.weights)
        return {"g": a.g, "n": a.n, "weights": _weights_list(a),
                "signature": signature_json(signature(a))}
    census = enumerate_chambers(args.g, args.n)
    out = {"g": census.g, "n": census.n,
           "chambers": len(census.chambers), "orbits": len(census.orbits)}
    sigs = [signature_json(s) for s in census.chambers]
    out["signatures"] = sigs
    if args.orbits:
        partition, start = [], 0
        for orbit in census.orbits:
            partition.append(list(range(start, start + len(orbit))))
            start += len(orbit)
        out["orbit_partition"] = partition
    return out


def _cmd_homology(args: argparse.Namespace) -> dict:
    a = _datum(args.g, args.weights)
    kind = args.kind
    if (kind == "relative") != (args.lower is not None):
        raise ValueError("--lower is for --kind relative, which needs it")
    if kind == "relative":
        lower = _datum(args.g, args.lower)
        complex_ = build_relative_complex(args.g, a, lower)
    elif kind == "graph":
        complex_ = build_graph_complex(args.g, a)
    elif kind == "cellular":
        complex_ = build_cellular_complex(args.g, a)
    else:
        a_part, b_part = split_AB(build_cellular_complex(args.g, a))
        complex_ = a_part if kind == "a-part" else b_part
    report = homology(complex_)
    out = {"kind": report.kind, "g": report.g,
           "weights": _weights_list(report.weights),
           "degrees": list(report.degrees),
           "dims": {str(k): v for k, v in sorted(report.dims.items())},
           "betti": {str(k): v for k, v in sorted(report.betti.items())},
           "delta": report.delta}
    if report.topweight:
        out["topweight"] = report.topweight
    if kind == "relative":
        out["lower"] = _weights_list(lower)
    return out


def _cmd_spectral(args: argparse.Namespace) -> dict:
    with open(args.input, encoding="utf-8") as fh:
        payload = json.load(fh)
    g, raw = parse_filtration_json(payload)
    f = filtered_from_raw(g, raw)
    if args.all_pages:
        pages: Sequence[int] = range(0, f.num_levels + 1)
    elif args.page is not None:
        pages = [args.page]
    else:
        pages = []
    return spectral_json(f, pages)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropgc",
        description="Homology of weighted graph complexes and tropical "
                    "moduli spaces, organized by Hassett chambers.")
    parser.add_argument("--pretty", action="store_true",
                        help="also print indented JSON to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    ch = sub.add_parser("chambers", help="chamber signatures and ordering")
    chsub = ch.add_subparsers(dest="chambers_cmd", required=True)
    cmp_ = chsub.add_parser("compare",
                            help="order two chambers up to relabeling")
    cmp_.add_argument("--g", type=int, required=True)
    cmp_.add_argument("--a", required=True, help="comma-separated rationals")
    cmp_.add_argument("--b", required=True, help="comma-separated rationals")
    enu = chsub.add_parser("enumerate", help="census of nonempty chambers")
    enu.add_argument("--g", type=int, required=True)
    enu.add_argument("--n", type=int, required=True)
    enu.add_argument("--orbits", action="store_true",
                     help="include the relabeling-orbit partition")
    sig = chsub.add_parser("signature", help="wall signs of one datum")
    sig.add_argument("--g", type=int, required=True)
    sig.add_argument("--weights", required=True,
                     help="comma-separated rationals")

    hom = sub.add_parser("homology", help="Betti numbers of one complex")
    hom.add_argument("--g", type=int, required=True)
    hom.add_argument("--weights", required=True,
                     help="comma-separated rationals")
    hom.add_argument("--kind", choices=HOMOLOGY_KINDS, default="graph")
    hom.add_argument("--lower", default=None,
                     help="lower weight datum (relative kind only)")

    spec = sub.add_parser("spectral",
                          help="spectral sequence of a filtration file")
    spec.add_argument("--input", required=True,
                      help='JSON file {"g": int, "weights": [[rationals]]}')
    group = spec.add_mutually_exclusive_group()
    group.add_argument("--page", type=int, default=None,
                       help="include the dimensions of one page")
    group.add_argument("--all-pages", action="store_true",
                       help="include pages 0..N")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"chambers": _cmd_chambers, "homology": _cmd_homology,
                "spectral": _cmd_spectral}
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            payload = handlers[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    _emit(payload, args.pretty)
    return 0


if __name__ == "__main__":
    sys.exit(main())
