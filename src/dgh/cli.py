"""Command-line front end.

Every command assembles a JSON-able report; text output is a rendering of
that same report, never a separate code path.  Exit codes: 0 all checks
pass, 1 a property is violated (the report names the check and witness),
2 input error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .config import DEFAULT_MAX_CUBES, DEFAULT_MAX_MAPS
from .digraph import INFINITY, pi0
from .errors import BadIndex, BudgetExceeded, DghError, InputError, InternalError
from .homology import homology_summary, induced_homology_map, pi1_presentation
from .homotopy import DdrWitness, an_tower, homotopy_classes, verify_ddr, verify_oddr
from .intervals import Interval, enumerate_shrinkings
from .io import load_assignment, load_cover, load_digraph, load_map, parse_vertex
from .nerve import (
    check_rho_properties,
    horn_inclusion,
    kan_filler_report,
    nerve_functor_map,
    nerve_levels,
)
from .covers import (
    SubdigraphFamily,
    check_cover_union,
    check_cover_equivalence,
    nerve_complex,
    nerve_theorem_pipeline,
)
from .coverings import (
    check_unique_lifting,
    covering_witness,
    is_l_covering,
)
from .suites import run_suite
from .triangulation import triangulate


# -- rendering ------------------------------------------------------------------


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [_jsonable(v) for v in items]
    if value is INFINITY:
        return None
    if hasattr(value, "as_dict"):
        return _jsonable(value.as_dict())
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _render_text(value, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key in value:
            inner = value[key]
            if isinstance(inner, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(inner, indent + 1))
            else:
                lines.append(f"{pad}{key}: {inner}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def emit(report, fmt):
    data = _jsonable(report)
    if fmt == "json":
        print(json.dumps(data, sort_keys=True, separators=(",", ":")))
    else:
        print("\n".join(_render_text(data)))


def _passed(report):
    if isinstance(report, dict):
        if "pass" in report:
            return bool(report["pass"])
    return True


# -- argument helpers --------------------------------------------------------------


def parse_vertices(g, text):
    return [parse_vertex(g, part) for part in text.split(",") if part]


def dimension(text):
    """argparse type of --maxdim: a nonnegative integer (large values are
    left to the cube budget)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


# -- commands -----------------------------------------------------------------------


def cmd_info(args):
    g = load_digraph(args.digraph)
    return {
        "vertices": len(g.vertices),
        "arrows": len(g.arrows),
        "components": len(pi0(g)),
        "pass": True,
    }


def cmd_pi0(args):
    g = load_digraph(args.digraph)
    comps = pi0(g)
    return {"components": [list(c) for c in comps], "count": len(comps)}


def cmd_classes(args):
    src = load_digraph(args.source)
    dst = load_digraph(args.target)
    rel = parse_vertices(src, args.rel) if args.rel else ()
    target_part = parse_vertices(dst, args.target_part) if args.target_part else None
    classes = homotopy_classes(
        src, dst, rel_part=rel, target_part=target_part, budget=args.max_maps
    )
    return {
        "maps": len(classes.maps),
        "classes": classes.n_classes,
        "representatives": [list(r) for r in classes.representatives()],
    }


def cmd_antower(args):
    g = load_digraph(args.digraph)
    base = parse_vertex(g, args.base)
    tower = an_tower(g, base, args.n, args.tower, args.stages, budget=args.max_maps)
    return {
        "tower": args.tower,
        "n": args.n,
        "class_counts": tower.class_counts(),
        "stable_window": list(tower.stabilization) if tower.stabilization else None,
        "note": "counts at computed stages only; no claim beyond the window",
    }


def cmd_nerve(args):
    g = load_digraph(args.digraph)
    sign = -1 if args.sign == "-" else 1
    x = nerve_levels(g, args.m, sign, args.maxdim, args.max_cubes)
    report = dict(x.counts())
    report["identity_violations"] = x.identity_violations()
    report["pass"] = not report["identity_violations"]
    if args.tables:
        report["faces"] = {
            str(n): {f"{i},{e}": table for (i, e), table in x.faces[n].items()}
            for n in range(1, x.top_dim + 1)
        }
        report["degeneracies"] = {
            str(n): {str(i): table for i, table in x.degens[n].items()}
            for n in range(1, x.top_dim + 1)
        }
        report["connections"] = {
            str(n): {f"{i},{e}": table for (i, e), table in x.connections[n].items()}
            for n in range(1, x.top_dim + 1)
        }
    return report


def cmd_homology(args):
    compared = ()
    if args.triangulated:
        compared = _checked("--maxdim", args.maxdim, 0, " to compare a degree")
    g = load_digraph(args.digraph)
    x = nerve_levels(g, args.nerve_m, 1, args.maxdim, args.max_cubes)
    summary = homology_summary(x)
    report = {
        "H": [grp.as_dict() for grp in summary["groups"]],
        "truncated_top": True,
    }
    if args.triangulated:
        t = triangulate(x).homology()
        report["triangulated_H"] = [grp.as_dict() for grp in t["groups"]]
        report["oracles_agree_below_top"] = all(
            summary["groups"][n] == t["groups"][n] for n in compared
        )
        report["pass"] = report["oracles_agree_below_top"]
    return report


def cmd_pi1(args):
    g = load_digraph(args.digraph)
    x = nerve_levels(g, args.nerve_m, 1, max(args.maxdim, 2), args.max_cubes)
    base = parse_vertex(g, args.base)
    pres = pi1_presentation(x, base)
    reduced = pres.tietze_reduced()
    ab = pres.abelianization()
    return {
        "generators": len(pres.generators),
        "relators": len(pres.relators),
        "reduced_generators": len(reduced.generators),
        "reduced_relators": len(reduced.relators),
        "abelianization": ab.as_dict(),
    }


def cmd_compare(args):
    below_top = _checked("--maxdim", args.maxdim, 0, " to compare a degree")
    phi = load_map(args.map)
    cm = nerve_functor_map(phi, args.nerve_m, args.maxdim, args.max_cubes)
    degrees = {}
    all_iso = True
    for n in below_top:
        info = induced_homology_map(cm, n)
        degrees[str(n)] = {
            "matrix": info["matrix"],
            "iso": info["iso"],
            "source": info["source_group"].as_dict(),
            "target": info["target_group"].as_dict(),
        }
        all_iso = all_iso and info["iso"]
    return {"degrees": degrees, "iso_below_top": all_iso, "pass": True}


def cmd_check_shrinkings(args):
    j = Interval.from_string(args.source)
    j2 = Interval.from_string(args.target)
    shr = enumerate_shrinkings(j, j2)
    report = {"count": len(shr), "assignments": [list(s.image_tuple()) for s in shr]}
    if len(shr) >= 2:
        classes = homotopy_classes(
            j.to_digraph(),
            j2.to_digraph(),
            rel_part=(0, j.last),
            target_part=(0, j2.last),
            budget=args.max_maps,
        )
        found = {classes.class_of_map(s.image_tuple()) for s in shr}
        report["single_relative_class"] = len(found) == 1
        report["pass"] = report["single_relative_class"]
    return report


def _load_ddr_args(args):
    g = load_digraph(args.digraph)
    part = parse_vertices(g, args.part)
    eta = load_assignment(args.eta)
    eta = {parse_vertex(g, k): parse_vertex(g, v) for k, v in eta.items()}
    return g, part, eta


def cmd_check_ddr(args):
    g, part, eta = _load_ddr_args(args)
    return verify_ddr(DdrWitness(g, part, eta))


def cmd_check_oddr(args):
    g, part, eta = _load_ddr_args(args)
    return verify_oddr(g, part, eta)


def cmd_check_cover(args):
    g = load_digraph(args.digraph)
    members = load_cover(args.cover)
    fam = SubdigraphFamily(g, members)
    report = check_cover_union(g, fam, args.maxdim, args.max_cubes)
    report["nerve_faces"] = [list(f) for f in sorted(nerve_complex(fam).faces)]
    return report


def cmd_check_cover_equiv(args):
    _checked("--maxdim", args.maxdim, 0, " to compare a degree")
    phi = load_map(args.map)
    fam = SubdigraphFamily(phi.source, load_cover(args.cover))
    fam2 = SubdigraphFamily(phi.target, load_cover(args.cover_prime))
    return check_cover_equivalence(phi, fam, fam2, args.maxdim, args.max_cubes)


def cmd_nerve_theorem(args):
    _checked("--maxdim", args.maxdim, 0, " to compare a degree")
    g = load_digraph(args.digraph)
    fam = SubdigraphFamily(g, load_cover(args.cover))
    return nerve_theorem_pipeline(g, fam, args.maxdim, args.max_cubes)


def cmd_check_covering(args):
    p = load_map(args.map)
    report = is_l_covering(p, args.l)
    witness = covering_witness(p)
    report["one_covering"] = witness is None
    if witness:
        report["witness"] = witness
    return report


def cmd_check_lifting(args):
    p = load_map(args.map)
    try:
        n, i, eps, side = (int(x) for x in args.horn.split(","))
    except ValueError:
        raise InputError("--horn expects n,i,eps,side") from None
    horn, cube = horn_inclusion(side, n, i, eps)
    return check_unique_lifting(p, horn, cube, budget=args.max_maps)


def _checked(option, value, first=1, purpose=""):
    """range(first, first + value), the items a command checks, counted by
    `option`: the dimensions 1..n of `check kan` and `check rho`, or the
    degrees 0..maxdim-1 that `compare`, `homology --triangulated`, `check
    cover-equiv` and `nerve-theorem` compare.  An empty range would check
    nothing and pass, so it is an input error."""
    if value < 1:
        raise BadIndex(f"need {option} >= 1{purpose}, got {value}")
    return range(first, first + value)


def cmd_check_kan(args):
    reports = []
    for n in _checked("n", args.n):
        for i in range(1, n + 1):
            for eps in (0, 1):
                reports.append(kan_filler_report(args.m, n, i, eps))
    return {"fillers": reports, "pass": all(r["pass"] for r in reports)}


def cmd_check_rho(args):
    reports = [check_rho_properties(n, args.m) for n in _checked("n", args.n)]
    return {"reports": reports, "pass": all(r["pass"] for r in reports)}


def cmd_verify(args):
    return run_suite(args.suite)


# -- parser ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by every
    later `main` call in the process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="dgh",
        description="homotopy invariants of finite directed graphs",
        allow_abbrev=False,
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--max-cubes", type=int, default=DEFAULT_MAX_CUBES)
    parser.add_argument("--max-maps", type=int, default=DEFAULT_MAX_MAPS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="vertex/arrow/component counts")
    p.add_argument("digraph")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("pi0", help="weak connected components")
    p.add_argument("digraph")
    p.set_defaults(func=cmd_pi0)

    p = sub.add_parser("classes", help="homotopy classes of maps")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--rel", default=None, help="comma list of source vertices")
    p.add_argument("--target-part", default=None, help="comma list of target vertices")
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("antower", help="pointed class tower")
    p.add_argument("digraph")
    p.add_argument("--base", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--tower", default="r", choices=("st", "r", "l", "odd", "cantor"))
    p.add_argument("--stages", type=int, default=6)
    p.set_defaults(func=cmd_antower)

    p = sub.add_parser("nerve", help="truncated nerve cube counts")
    p.add_argument("digraph")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--sign", choices=("+", "-"), default="+")
    p.add_argument("--maxdim", type=dimension, default=2)
    p.add_argument("--tables", action="store_true")
    p.set_defaults(func=cmd_nerve)

    p = sub.add_parser("homology", help="nerve homology")
    p.add_argument("digraph")
    p.add_argument("--nerve-m", type=int, default=1)
    p.add_argument("--maxdim", type=dimension, default=2)
    p.add_argument("--triangulated", action="store_true",
                   help="also run the triangulated oracle and compare")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("pi1", help="fundamental group presentation")
    p.add_argument("digraph")
    p.add_argument("--base", required=True)
    p.add_argument("--nerve-m", type=int, default=1)
    p.add_argument("--maxdim", type=dimension, default=2)
    p.set_defaults(func=cmd_pi1)

    p = sub.add_parser("compare", help="induced map on nerve homology")
    p.add_argument("map")
    p.add_argument("--nerve-m", type=int, default=1)
    p.add_argument("--maxdim", type=dimension, default=2)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("nerve-theorem", help="cover nerve comparison pipeline")
    p.add_argument("digraph")
    p.add_argument("cover")
    p.add_argument("--maxdim", type=dimension, default=2)
    p.set_defaults(func=cmd_nerve_theorem)

    check = sub.add_parser("check", help="property checks").add_subparsers(
        dest="check", required=True
    )

    p = check.add_parser("shrinkings")
    p.add_argument("source", help="interval literal over '>' and '<'")
    p.add_argument("target")
    p.set_defaults(func=cmd_check_shrinkings)

    for name, func in (("ddr", cmd_check_ddr), ("oddr", cmd_check_oddr)):
        p = check.add_parser(name)
        p.add_argument("digraph")
        p.add_argument("--part", required=True)
        p.add_argument("--eta", required=True, help="JSON file with an assignment")
        p.set_defaults(func=func)

    p = check.add_parser("cover")
    p.add_argument("digraph")
    p.add_argument("cover")
    p.add_argument("--maxdim", type=dimension, default=2)
    p.set_defaults(func=cmd_check_cover)

    p = check.add_parser("cover-equiv")
    p.add_argument("map")
    p.add_argument("cover")
    p.add_argument("cover_prime")
    p.add_argument("--maxdim", type=dimension, default=2)
    p.set_defaults(func=cmd_check_cover_equiv)

    p = check.add_parser("covering")
    p.add_argument("map")
    p.add_argument("--l", type=int, default=2)
    p.set_defaults(func=cmd_check_covering)

    p = check.add_parser("lifting")
    p.add_argument("map")
    p.add_argument("--horn", required=True, help="n,i,eps,side")
    p.set_defaults(func=cmd_check_lifting)

    p = check.add_parser("kan")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(func=cmd_check_kan)

    p = check.add_parser("rho")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(func=cmd_check_rho)

    p = sub.add_parser("verify", help="replay a verification suite")
    p.add_argument("what", choices=("paper",))
    p.add_argument("--suite", default="all")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("max_cubes", "max_maps"):
            if getattr(args, name) <= 0:
                raise InputError(f"{name} must be positive")
        report = args.func(args)
    except BudgetExceeded as exc:
        print(json.dumps({"error": str(exc), "kind": "budget"}), file=sys.stderr)
        return 3
    except InternalError as exc:
        print(json.dumps({"error": str(exc), "kind": "internal"}), file=sys.stderr)
        return 2
    except DghError as exc:
        print(json.dumps({"error": str(exc), "kind": "input"}), file=sys.stderr)
        return 2
    emit(report, args.format)
    return 0 if _passed(report) else 1


if __name__ == "__main__":
    sys.exit(main())
