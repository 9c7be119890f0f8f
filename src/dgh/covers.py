"""In/out closures, covers by closed subdigraphs, nerve complexes, and the
union/pushout comparison pipeline.

"Weakly contractible" is operationalized as evidence: a single weak
component together with vanishing reduced homology through the computed
truncation.  Reports say so explicitly; nothing stronger is claimed.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from .config import DEFAULT_MAX_CUBES
from .digraph import DigraphMap, pi0, pushout_along_induced_inclusion
from .errors import (
    IndexMismatch,
    MixedClosedness,
    NotACover,
    NotAUnion,
    NotInClosed,
    UnknownVertex,
)
from .homology import homology_summary, induced_homology_map
from .nerve import nerve_functor_map, nerve_levels
from .triangulation import simplicial_homology


def _closure(g, part, neighbours):
    out = set(part)
    g.check_vertices(out)
    queue = deque(out)
    while queue:
        v = queue.popleft()
        for w in neighbours(v):
            if w not in out:
                out.add(w)
                queue.append(w)
    return tuple(v for v in g.vertices if v in out)


def in_closure(g, part):
    """Least predecessor-closed vertex set containing the part."""
    return _closure(g, part, g.predecessors)


def out_closure(g, part):
    """Least successor-closed vertex set containing the part."""
    return _closure(g, part, g.successors)


def is_in_closed(g, part):
    part = set(part)
    return all(u in part for (u, v) in g.arrows if v in part)


def is_out_closed(g, part):
    part = set(part)
    return all(v in part for (u, v) in g.arrows if u in part)


class SubdigraphFamily:
    """Named vertex subsets of an ambient digraph, with closedness flags."""

    def __init__(self, ambient, members):
        self.ambient = ambient
        self.members = {name: tuple(vs) for name, vs in members.items()}
        for name, vs in self.members.items():
            for v in vs:
                if v not in ambient._index:
                    raise UnknownVertex(f"member {name!r}: unknown vertex {v!r}")
        self.names = sorted(self.members)
        self.in_closed = {
            name: is_in_closed(ambient, vs) for name, vs in self.members.items()
        }
        self.out_closed = {
            name: is_out_closed(ambient, vs) for name, vs in self.members.items()
        }

    def covers_vertices(self):
        union = set()
        for vs in self.members.values():
            union.update(vs)
        return union == set(self.ambient.vertices)

    def intersection(self, names):
        common = set(self.ambient.vertices)
        for name in names:
            common &= set(self.members[name])
        return tuple(v for v in self.ambient.vertices if v in common)


class NerveComplex:
    """Abstract simplicial complex of nonempty member intersections."""

    def __init__(self, names, faces):
        self.names = list(names)
        self.faces = {tuple(sorted(f)) for f in faces}
        for f in self.faces:
            for k in range(1, len(f)):
                for sub in combinations(f, k):
                    assert sub in self.faces, "nerve faces must be downward closed"

    def homology(self):
        return simplicial_homology(self.faces)


def nerve_complex(family):
    faces = set()
    names = family.names
    for k in range(1, len(names) + 1):
        for combo in combinations(names, k):
            if k > 1 and any(
                tuple(sorted(sub)) not in faces
                for sub in combinations(combo, k - 1)
            ):
                continue
            if family.intersection(combo):
                faces.add(tuple(sorted(combo)))
    return NerveComplex(names, faces)


# -- cube coverage -------------------------------------------------------------


def check_cover_union(g, family, top_dim=2, budget=DEFAULT_MAX_CUBES):
    """Every cube of the truncated nerve must land inside some member.

    The probe is the box power of the one-arrow interval, whose maps are
    exactly the nerve cubes; closedness of every member makes this a
    theorem, so a witness can only appear when some member is not closed
    (reported), or the family is not a cover (raised).
    """
    if not family.covers_vertices():
        raise NotACover("the members do not cover the vertex set")
    report = {
        "members": {
            name: {
                "in_closed": family.in_closed[name],
                "out_closed": family.out_closed[name],
            }
            for name in family.names
        },
        "all_in_closed": all(family.in_closed.values()),
        "all_out_closed": all(family.out_closed.values()),
        "levels": [],
        "pass": True,
    }
    nerve = nerve_levels(g, 1, 1, top_dim, budget)
    member_sets = {name: set(vs) for name, vs in family.members.items()}
    for n in range(top_dim + 1):
        covered = 0
        witness = None
        for cube in nerve.cubes[n]:
            image = set(cube)
            if any(image <= member_sets[name] for name in family.names):
                covered += 1
            elif witness is None:
                witness = list(cube)
        entry = {"dim": n, "cubes": len(nerve.cubes[n]), "covered": covered}
        if witness is not None:
            entry["witness_cube"] = witness
            report["pass"] = False
        report["levels"].append(entry)
    return report


def _contractibility_evidence(g, subset, top_dim, budget):
    sub = g.induced(subset)
    if not sub.vertices:
        return {"empty": True, "weakly_contractible_evidence": False}
    components = len(pi0(sub))
    hom = homology_summary(nerve_levels(sub, 1, 1, top_dim, budget), reduced=True)
    reduced_vanish = all(
        hom["groups"][n].betti == 0 and not hom["groups"][n].torsion
        for n in range(top_dim)
    )
    return {
        "empty": False,
        "components": components,
        "reduced_homology_below_top": [
            hom["groups"][n].as_dict() for n in range(top_dim)
        ],
        "weakly_contractible_evidence": components == 1 and reduced_vanish,
    }


def nerve_theorem_pipeline(g, family, top_dim=2, budget=DEFAULT_MAX_CUBES):
    """Contractibility evidence per nerve face, then compare the homology
    of the cover's nerve complex with the nerve homology of the digraph.

    The comparison is only meaningful for a uniformly closed cover, so a
    family mixing strictly-in-closed with strictly-out-closed members is
    rejected."""
    if not family.covers_vertices():
        raise NotACover("the members do not cover the vertex set")
    if not (all(family.in_closed.values()) or all(family.out_closed.values())):
        raise MixedClosedness(
            "the members are neither all in-closed nor all out-closed"
        )
    ner = nerve_complex(family)
    faces = sorted(ner.faces)
    report = {
        "faces": [],
        "all_intersections_contractible_evidence": True,
        "pass": True,
    }
    for face in faces:
        subset = family.intersection(face)
        evidence = _contractibility_evidence(g, subset, top_dim, budget)
        entry = {"face": list(face), "size": len(subset)}
        entry.update(evidence)
        report["faces"].append(entry)
        if not evidence["weakly_contractible_evidence"]:
            report["all_intersections_contractible_evidence"] = False
    ner_h = ner.homology()
    g_h = homology_summary(nerve_levels(g, 1, 1, top_dim, budget))
    report["nerve_complex_homology"] = [
        grp.as_dict() for grp in ner_h["groups"]
    ]
    report["digraph_nerve_homology"] = [
        grp.as_dict() for grp in g_h["groups"]
    ]
    agree = True
    for n in range(top_dim):
        left = ner_h["groups"][n] if n <= ner_h["top"] else None
        right = g_h["groups"][n]
        left_rank = left.betti if left else 0
        left_tor = left.torsion if left else ()
        if (left_rank, tuple(left_tor)) != (right.betti, tuple(right.torsion)):
            agree = False
    report["checked_degrees"] = list(range(top_dim))
    report["homology_agrees_below_top"] = agree
    report["consistent"] = bool(
        report["all_intersections_contractible_evidence"] and agree
    )
    report["pass"] = report["consistent"]
    report["note"] = (
        "evidence at the computed truncation only; degrees >= top are not read"
    )
    return report


def check_union_pushout(g, part_a, part_b):
    """Level-wise amalgamation: the nerve cube sets of g must be exactly the
    union of the two sub-nerves over the intersection sub-nerve."""
    sa, sb = set(part_a), set(part_b)
    if not is_in_closed(g, sa) or not is_in_closed(g, sb):
        raise NotInClosed("both parts must be in-closed")
    if sa | sb != set(g.vertices):
        raise NotAUnion("the two parts do not cover the vertex set")
    report = {"levels": [], "pass": True}
    arrows_covered = all(
        (u in sa and v in sa) or (u in sb and v in sb) for (u, v) in g.arrows
    )
    report["every_arrow_in_a_part"] = arrows_covered
    if not arrows_covered:
        report["pass"] = False
    whole = nerve_levels(g, 1, 1, 2)
    na = nerve_levels(g.induced(sa), 1, 1, 2)
    nb = nerve_levels(g.induced(sb), 1, 1, 2)
    nab = nerve_levels(g.induced(sa & sb), 1, 1, 2)
    for n in range(3):
        total = set(whole.cubes[n])
        ca = set(na.cubes[n])
        cb = set(nb.cubes[n])
        cab = set(nab.cubes[n])
        union_ok = ca | cb == total
        intersection_ok = ca & cb == cab
        counts_ok = len(ca) + len(cb) - len(cab) == len(total)
        entry = {
            "dim": n,
            "union_equals_whole": union_ok,
            "intersection_matches": intersection_ok,
            "amalgamated_count_matches": counts_ok,
        }
        if not (union_ok and intersection_ok and counts_ok):
            report["pass"] = False
        report["levels"].append(entry)
    return report


def check_cover_equivalence(
    phi, family, family_prime, top_dim=2, budget=DEFAULT_MAX_CUBES
):
    """Per-face homology comparison through a map of covers, plus the global
    induced map on nerve homology."""
    if set(family.names) != set(family_prime.names):
        raise IndexMismatch("covers must share their member names")
    for name in family.names:
        image = {phi.assignment[v] for v in family.members[name]}
        if not image <= set(family_prime.members[name]):
            raise IndexMismatch(f"member {name!r} is not mapped into its partner")
    faces = sorted(
        set(nerve_complex(family).faces) | set(nerve_complex(family_prime).faces)
    )
    report = {"faces": [], "pass": True}
    for face in faces:
        sub = family.intersection(face)
        sub_prime = family_prime.intersection(face)
        entry = {"face": list(face), "size": len(sub), "size_prime": len(sub_prime)}
        # each face is a face of one of the nerves, so one side is nonempty
        if not sub or not sub_prime:
            entry["verdict"] = "one side empty"
            report["pass"] = False
            report["faces"].append(entry)
            continue
        g_sub = family.ambient.induced(sub)
        g_sub_prime = family_prime.ambient.induced(sub_prime)
        restricted = DigraphMap(
            g_sub, g_sub_prime, {v: phi.assignment[v] for v in sub}
        )
        cm = nerve_functor_map(restricted, 1, top_dim, budget)
        verdict = all(
            induced_homology_map(cm, n)["iso"] for n in range(top_dim)
        )
        entry["homology_iso_below_top"] = verdict
        if not verdict:
            report["pass"] = False
        report["faces"].append(entry)
    global_map = nerve_functor_map(phi, 1, top_dim, budget)
    global_info = {n: induced_homology_map(global_map, n) for n in range(top_dim)}
    report["global"] = {str(n): info["iso"] for n, info in global_info.items()}
    report["global_matrices"] = {
        str(n): info["matrix"] for n, info in global_info.items()
    }
    if not all(report["global"].values()):
        report["pass"] = False
    return report


def pushout_closure_identity(g, part, phi):
    """Out-closures commute with pushouts along in-closed parts, and the
    nerve square of the two closures amalgamates level-wise."""
    part = tuple(part)
    if not is_in_closed(g, part):
        raise NotInClosed("the glued part must be in-closed")
    o_vertices = out_closure(g, part)
    o = g.induced(o_vertices)
    g_prime, phi_prime, _ = pushout_along_induced_inclusion(g, part, phi)
    o_prime, _, _ = pushout_along_induced_inclusion(o, part, phi)
    closure_in_gp = out_closure(g_prime, phi.target.vertices)
    pushed = {phi_prime.assignment[x] for x in o_vertices} | set(
        phi.target.vertices
    )
    report = {"pass": True}
    report["closure_vertices_match"] = set(closure_in_gp) == pushed
    induced_closure = g_prime.induced(closure_in_gp)
    report["closure_digraph_matches_pushout"] = (
        set(induced_closure.vertices) == set(o_prime.vertices)
        and induced_closure.arrows == o_prime.arrows
    )
    if not (
        report["closure_vertices_match"]
        and report["closure_digraph_matches_pushout"]
    ):
        report["pass"] = False
    # level-wise nerve pushout: cubes of g' are covered by the images of the
    # cubes of g and of the pushed-out closure, glued over the cubes of o
    n_g = nerve_levels(g, 1, 1, 2)
    n_gp = nerve_levels(g_prime, 1, 1, 2)
    n_o = nerve_levels(o, 1, 1, 2)
    n_op = nerve_levels(induced_closure, 1, 1, 2)
    report["levels"] = []
    for n in range(3):
        img_g = {
            tuple(phi_prime.assignment[v] for v in cube) for cube in n_g.cubes[n]
        }
        img_op = set(n_op.cubes[n])
        img_o = {
            tuple(phi_prime.assignment[v] for v in cube) for cube in n_o.cubes[n]
        }
        total = set(n_gp.cubes[n])
        entry = {
            "dim": n,
            "jointly_surjective": img_g | img_op == total,
            "intersection_is_shared_part": img_g & img_op == img_o,
        }
        if not (entry["jointly_surjective"] and entry["intersection_is_shared_part"]):
            report["pass"] = False
        report["levels"].append(entry)
    return report
