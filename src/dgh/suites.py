"""Replayable verification suites behind `dgh verify paper`.

Each suite replays one family of lemma-level properties at desk scale and
returns a deterministic report: {"suite", "anchor", "checks", "pass"}.
The anchor is a one-line description of the property family; every suite
name maps to exactly one anchor.
"""

from __future__ import annotations

from . import corpus
from .digraph import (
    Digraph,
    DigraphMap,
    DigraphPair,
    box_hom,
    box_product,
    curry,
    disjoint_union,
    enumerate_digraph_maps,
    pair_box_hom,
    pair_box_product,
    pushout_along_induced_inclusion,
    uncurry,
)
from .covers import (
    check_union_pushout,
    in_closure,
    is_in_closed,
    is_out_closed,
    out_closure,
    pushout_closure_identity,
)
from .coverings import (
    check_two_covering_filtration,
    check_unique_lifting,
    is_l_covering,
    is_one_covering,
)
from .errors import InputError, NotInClosed
from .homology import induced_homology_map
from .homotopy import (
    DdrWitness,
    homotopy_classes,
    loop_stage_pullback_check,
    verify_ddr,
    verify_oddr,
)
from .intervals import all_intervals, enumerate_shrinkings, standard_interval, truncation
from .nerve import (
    check_rho_properties,
    comparison_map,
    cube_realization,
    horn_inclusion,
    horn_vertices,
    kan_filler_phi,
    kan_filler_report,
    nerve_levels,
    _central_clamp,
)


def _suite(name, anchor, checks):
    return {
        "suite": name,
        "anchor": anchor,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def _check(name, ok, detail=None):
    entry = {"name": name, "pass": bool(ok)}
    if detail is not None:
        entry["detail"] = detail
    return entry


# -- rho -----------------------------------------------------------------------


def suite_rho():
    checks = []
    for n in (1, 2, 3):
        for m in (2, 4):
            rep = check_rho_properties(n, m)
            checks.append(_check(f"rho-identities n={n} m={m}", rep["pass"]))
    return _suite(
        "rho",
        "rho-bar face identities (i)-(v), exhaustive on grid vertices",
        checks,
    )


# -- kan -----------------------------------------------------------------------


def suite_kan():
    checks = []
    for n in (1, 2):
        for i in range(1, n + 1):
            for eps in (0, 1):
                rep = kan_filler_report(1, n, i, eps)
                checks.append(
                    _check(f"filler-contract n={n} i={i} eps={eps}", rep["pass"])
                )
    # bounded filling: every horn map composes with the filler to a full
    # cube whose horn restriction recovers it through the central clamp
    for gname, g in corpus.tiny_corpus().items():
        for i in (1, 2):
            for eps in (0, 1):
                horn, _ = horn_inclusion(2, 2, i, eps)
                phi = kan_filler_phi(1, 2, i, eps)
                ok = True
                for h_images in enumerate_digraph_maps(horn, g):
                    lookup = dict(zip(horn.vertices, h_images))
                    for v in horn_vertices(6, 2, i, eps):
                        big = lookup[phi.assignment[v]]
                        small = lookup[tuple(_central_clamp(c, 1) for c in v)]
                        if big != small:
                            ok = False
                            break
                    if not ok:
                        break
                checks.append(
                    _check(f"bounded-filling {gname} i={i} eps={eps}", ok)
                )
    return _suite(
        "kan",
        "horn filler triangle at the 6m -> 2m shift and bounded filling",
        checks,
    )


# -- shrinkings ------------------------------------------------------------------


def suite_shrinkings():
    checks = []
    worst = 0
    failures = []
    pairs = 0
    for j in all_intervals(5):
        src = j.to_digraph()
        for j2 in all_intervals(4):
            shr = enumerate_shrinkings(j, j2)
            if len(shr) < 2:
                continue
            pairs += 1
            dst = j2.to_digraph()
            classes = homotopy_classes(
                src,
                dst,
                rel_part=(0, j.last),
                target_part=(0, j2.last),
            )
            found = {classes.class_of_map(s.image_tuple()) for s in shr}
            worst = max(worst, len(found))
            if len(found) != 1:
                failures.append((j.to_string(), j2.to_string()))
    checks.append(
        _check(
            f"all-shrinkings-one-class ({pairs} interval pairs)",
            not failures,
            failures[:3] or None,
        )
    )
    # composition closure on short intervals
    from .intervals import is_shrinking

    ok = True
    for j in all_intervals(3):
        for j2 in all_intervals(3):
            for j3 in all_intervals(2):
                for s1 in enumerate_shrinkings(j, j2):
                    for s2 in enumerate_shrinkings(j2, j3):
                        if not is_shrinking(s2.compose(s1)):
                            ok = False
    checks.append(_check("composition-closure", ok))
    return _suite(
        "shrinkings",
        "any two shrinkings between intervals are relatively homotopic",
        checks,
    )


# -- closure laws ----------------------------------------------------------------


def suite_closure():
    checks = []
    graphs = corpus.small_corpus()
    laws_ok = True
    equiv_ok = True
    for g in graphs.values():
        verts = list(g.vertices)
        subsets = [verts[:k] for k in range(len(verts) + 1)]
        subsets += [verts[1::2], verts[::2]]
        for part in subsets:
            for clo in (in_closure, out_closure):
                c = clo(g, part)
                if set(part) - set(c):
                    laws_ok = False  # extensive
                if set(clo(g, c)) != set(c):
                    laws_ok = False  # idempotent
            bigger = verts[: min(len(verts), len(part) + 1)]
            if set(part) <= set(bigger):
                if not set(in_closure(g, part)) <= set(in_closure(g, bigger)):
                    laws_ok = False  # monotone
            if is_in_closed(g, part) != (set(in_closure(g, part)) == set(part)):
                equiv_ok = False
            if is_out_closed(g, part) != (set(out_closure(g, part)) == set(part)):
                equiv_ok = False
    checks.append(_check("idempotent-extensive-monotone", laws_ok))
    checks.append(_check("closed-iff-fixed-point", equiv_ok))
    # preimages of closed parts are closed
    ok = True
    c3 = graphs["c3"]
    for gname in ("i2", "c3", "fan", "square"):
        g = graphs[gname]
        for images in enumerate_digraph_maps(g, c3):
            phi = dict(zip(g.vertices, images))
            for part in ([0], [0, 1], [0, 1, 2]):
                if is_in_closed(c3, part):
                    pre = [v for v in g.vertices if phi[v] in part]
                    if not is_in_closed(g, pre):
                        ok = False
                if is_out_closed(c3, part):
                    pre = [v for v in g.vertices if phi[v] in part]
                    if not is_out_closed(g, pre):
                        ok = False
    checks.append(_check("preimage-closedness", ok))
    return _suite(
        "closure",
        "in/out closures: idempotent, extensive, monotone, fixed-point test,"
        " preimage stability",
        checks,
    )


# -- saturation shadows ------------------------------------------------------------


def _in_closed_subsets(g):
    verts = list(g.vertices)
    out = []
    for mask in range(1 << len(verts)):
        part = [v for k, v in enumerate(verts) if mask >> k & 1]
        if is_in_closed(g, part):
            out.append(tuple(part))
    return out


def suite_saturation():
    checks = []
    graphs = corpus.small_corpus()
    push_ok = True
    cases = 0
    for gname in ("i2", "c3", "fan", "square", "chain_pair"):
        g = graphs[gname]
        for part in _in_closed_subsets(g):
            if not part or len(part) == len(g.vertices):
                continue
            sub = g.induced(part)
            for target in (graphs["point"], graphs["i1"]):
                for images in enumerate_digraph_maps(sub, target):
                    phi = DigraphMap(sub, target, dict(zip(sub.vertices, images)))
                    try:
                        gp, _, _ = pushout_along_induced_inclusion(g, part, phi)
                    except InputError:
                        continue  # label collision; not a saturation question
                    image_part = [
                        v for v in gp.vertices if v in set(target.vertices)
                    ]
                    if not is_in_closed(gp, image_part):
                        push_ok = False
                    cases += 1
    checks.append(
        _check(f"in-closed-stable-under-pushout ({cases} pushouts)", push_ok)
    )
    # retract configurations on <= 4 vertices: r(H) must land inside H
    retract_ok = True
    tried = 0
    for gname in ("i2", "i3", "fan", "c4"):
        g = graphs[gname]
        verts = list(g.vertices)
        for keep_mask in range(1, 1 << len(verts)):
            keep = [v for k, v in enumerate(verts) if keep_mask >> k & 1]
            sub = g.induced(keep)
            pinned = {v: (v,) for v in keep}
            for images in enumerate_digraph_maps(g, sub, pinned=pinned):
                r = dict(zip(g.vertices, images))
                for part in _in_closed_subsets(g):
                    image = {r[x] for x in part}
                    if not image <= (set(keep) & set(part)):
                        continue  # the retract hypothesis needs r(H) inside H
                    hp = tuple(v for v in keep if v in image)
                    if not is_in_closed(sub, hp):
                        retract_ok = False
                    tried += 1
    checks.append(
        _check(f"in-closed-stable-under-retract ({tried} configurations)", retract_ok)
    )
    return _suite(
        "saturation",
        "in-closed inclusions are stable under pushouts and retracts",
        checks,
    )


# -- ddr ----------------------------------------------------------------------------


def _ddr_examples():
    """Verified retract witnesses used for the stability checks."""
    line1 = corpus.line(1)
    sq = corpus.directed_square()
    out = []
    out.append(
        (
            "square-to-corner",
            DdrWitness(
                sq,
                [(0, 0)],
                {(0, 0): (0, 0), (0, 1): (0, 0), (1, 0): (0, 0), (1, 1): (0, 1)},
            ),
        )
    )
    for gname in ("i1", "c3", "fan"):
        g = corpus.small_corpus()[gname]
        cyl = box_product(g, line1)
        eta = {}
        for v in cyl.vertices:
            eta[v] = (v[0], 0)
        out.append((f"cylinder-{gname}", DdrWitness(cyl, [(v, 0) for v in g.vertices], eta)))
    return out


def suite_ddr():
    checks = []
    for name, witness in _ddr_examples():
        rep = verify_ddr(witness)
        checks.append(_check(f"ddr-{name}", rep["pass"]))
    # identity on the whole vertex set always passes
    c3 = corpus.small_corpus()["c3"]
    rep = verify_ddr(DdrWitness(c3, c3.vertices, {v: v for v in c3.vertices}))
    checks.append(_check("ddr-identity", rep["pass"]))
    # a non-example must fail the distance condition
    i1 = corpus.line(1)
    try:
        verify_ddr(DdrWitness(i1, [1], {0: 0, 1: 1}))
        checks.append(_check("ddr-non-example-rejected", False))
    except NotInClosed:
        checks.append(_check("ddr-non-example-rejected", True))
    bad = verify_ddr(DdrWitness(i1, [0], {0: 0, 1: 1}))
    checks.append(
        _check("ddr-bad-eta-fails-distance", not bad["conditions"]["distance-step"]["pass"])
    )
    # pushout stability
    stable_ok = True
    tried = 0
    point = corpus.small_corpus()["point"]
    for name, witness in _ddr_examples():
        g = witness.ambient
        part = witness.part
        sub = g.induced(part)
        for images in enumerate_digraph_maps(sub, point):
            phi = DigraphMap(sub, point, dict(zip(sub.vertices, images)))
            gp, phip, _ = pushout_along_induced_inclusion(g, part, phi)
            eta_new = {}
            for w in gp.vertices:
                if w in set(point.vertices):
                    eta_new[w] = w
            for v in g.vertices:
                w = phip.assignment[v]
                if w not in eta_new:
                    eta_new[w] = phip.assignment[witness.eta.assignment[v]]
            rep = verify_ddr(
                DdrWitness(gp, [v for v in gp.vertices if v in set(point.vertices)], eta_new)
            )
            if not rep["pass"]:
                stable_ok = False
            tried += 1
    checks.append(_check(f"ddr-pushout-stability ({tried} pushouts)", stable_ok))
    # the out-closure form: levels of a cylinder, and the double-collar factorization
    for gname in ("i1", "c3"):
        g = corpus.small_corpus()[gname]
        cyl = box_product(g, corpus.line(1))
        rep = verify_oddr(
            cyl,
            [(v, 0) for v in g.vertices],
            {v: (v[0], 0) for v in box_product(g, corpus.line(1)).vertices},
        )
        checks.append(_check(f"oddr-cylinder-{gname}", rep["pass"]))
    # every verified witness is invisible to nerve homology below the top
    from .nerve import nerve_functor_map

    evidence_ok = True
    for name, witness in _ddr_examples():
        sub = witness.ambient.induced(witness.part)
        incl = DigraphMap(sub, witness.ambient, {v: v for v in witness.part})
        cm = nerve_functor_map(incl, 1, 2)
        if not all(induced_homology_map(cm, deg)["iso"] for deg in (0, 1)):
            evidence_ok = False
    checks.append(_check("ddr-homology-evidence", evidence_ok))
    # the codiagonal G ⊔ G -> G x J factors as an in-closed cofibration when
    # J is a length-5 interval whose endpoints are sources with one-step
    # collars (the standard zigzag fails: its last arrow points into the end)
    from .intervals import Interval

    collar_interval = Interval.from_string("><>><")
    for gname in ("i1", "c3"):
        g = corpus.small_corpus()[gname]
        cyl = box_product(g, collar_interval.to_digraph())
        ends = [(v, j) for v in g.vertices for j in (0, 5)]
        collar = cyl.induced(out_closure(cyl, ends))
        eta = {}
        for (v, j) in collar.vertices:
            eta[(v, j)] = (v, 0) if j in (0, 1) else (v, 5)
        rep = verify_oddr(cyl, ends, eta)
        checks.append(_check(f"oddr-double-collar-{gname}", rep["pass"]))
        out_levels = {j for (_, j) in collar.vertices}
        checks.append(
            _check(
                f"double-collar-out-closure-{gname}",
                out_levels == {0, 1, 4, 5},
            )
        )
    return _suite(
        "ddr",
        "directed deformation retracts: conditions, iterate reformulation,"
        " pushout stability, out-closure examples",
        checks,
    )


# -- currying ---------------------------------------------------------------------


def suite_currying():
    checks = []
    names = ("point", "i1", "i2", "c3", "fan")
    graphs = corpus.small_corpus()
    ok_counts = True
    ok_inverse = True
    for a in names[:4]:
        for b in names[:4]:
            for c in ("i1", "c3"):
                g, h, k = graphs[a], graphs[b], graphs[c]
                left = enumerate_digraph_maps(box_product(g, h), k)
                hom = box_hom(h, k)
                right = enumerate_digraph_maps(g, hom)
                if len(left) != len(right):
                    ok_counts = False
                curried = {curry(g, h, k, t) for t in left}
                if curried != set(right):
                    ok_counts = False
                for t in left:
                    if uncurry(g, h, k, curry(g, h, k, t)) != t:
                        ok_inverse = False
    checks.append(_check("map-level-bijection", ok_counts))
    checks.append(_check("curry-uncurry-inverse", ok_inverse))
    # class-level bijection on tiny pointed instances
    ok_classes = True
    i1 = graphs["i1"]
    for gname in ("i1", "i2"):
        for kname in ("i1", "c3"):
            p = DigraphPair(graphs[gname], [graphs[gname].vertices[0]])
            q = DigraphPair(i1, [0])
            r = DigraphPair(graphs[kname], [graphs[kname].vertices[0]])
            pq = pair_box_product(p, q)
            left = homotopy_classes(
                pq.ambient, r.ambient, rel_part=pq.part, target_part=r.part
            )
            hom_pair = pair_box_hom(q, r)
            right = homotopy_classes(
                p.ambient,
                hom_pair.ambient,
                rel_part=p.part,
                target_part=hom_pair.part,
            )
            if left.n_classes != right.n_classes:
                ok_classes = False
    checks.append(_check("class-level-bijection", ok_classes))
    return _suite(
        "currying",
        "product/hom adjunction: map bijection, inverse witnesses, class counts",
        checks,
    )


# -- omega --------------------------------------------------------------------------


def suite_omega():
    checks = []
    for gname, base in (("c3", 0), ("square", (0, 0)), ("fan", "b")):
        g = corpus.small_corpus()[gname]
        for m in (1, 2, 3, 4):
            rep = loop_stage_pullback_check(g, base, m)
            checks.append(_check(f"loop-pullback {gname} m={m}", rep["pass"]))
    return _suite(
        "omega",
        "the loop stage is the exact pullback of the endpoint evaluations",
        checks,
    )


# -- union / pushout ------------------------------------------------------------------


def in_closed_splittings(g):
    """The first six unordered pairs of proper in-closed parts covering g."""
    parts = _in_closed_subsets(g)
    out = []
    whole = set(g.vertices)
    for i, a in enumerate(parts):
        for b in parts[i:]:
            if not a or not b:
                continue
            if set(a) | set(b) == whole and set(a) != whole and set(b) != whole:
                out.append((a, b))
                if len(out) == 6:
                    return out
    return out


def suite_union():
    checks = []
    splittings = []
    graphs = dict(corpus.small_corpus())
    graphs["w"] = Digraph(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("c", "b"), ("c", "d"), ("e", "d")],
    )
    graphs["i3op"] = corpus.line(3, -1)
    graphs["two_lines"] = corpus.two_lines()
    graphs["c3_i1"] = disjoint_union(corpus.cycle(3), corpus.line(1))
    graphs["fan_pt"] = disjoint_union(corpus.fan_out(), Digraph(["z"]))
    for gname in (
        "i2",
        "i2op",
        "i3op",
        "c3",
        "fan",
        "square",
        "chain_pair",
        "w",
        "two_lines",
        "c3_i1",
        "fan_pt",
    ):
        g = graphs[gname]
        for a, b in in_closed_splittings(g):
            splittings.append((gname, g, a, b))
    o = corpus.o_digraph()
    grid = corpus.grid_4x4()
    for name, big in (("o", o), ("grid", grid)):
        verts = big.vertices
        splittings.append(
            (
                f"{name}-rows",
                big,
                tuple(v for v in verts if v[0] <= 2),
                tuple(v for v in verts if v[0] >= 2),
            )
        )
        splittings.append(
            (
                f"{name}-cols",
                big,
                tuple(v for v in verts if v[1] <= 2),
                tuple(v for v in verts if v[1] >= 2),
            )
        )
    ok = True
    first_bad = None
    for name, g, a, b in splittings:
        rep = check_union_pushout(g, a, b)
        if not rep["pass"]:
            ok = False
            first_bad = first_bad or name
    checks.append(
        _check(f"levelwise-amalgamation ({len(splittings)} splittings)", ok, first_bad)
    )
    checks.append(_check("enough-splittings", len(splittings) >= 20,
                         f"found {len(splittings)}"))
    # pushout of the out-closure commutes with gluing
    fan = corpus.small_corpus()["fan"]
    pt = corpus.small_corpus()["point"]
    ok_po = True
    boundary = tuple(corpus.boundary_4x4().vertices)
    for g, part in (
        (fan, ("a", "b")),
        (corpus.line(2), (0,)),
        (corpus.o_digraph(), boundary),
        (corpus.grid_4x4(), boundary),
    ):
        sub = g.induced(part)
        phi = DigraphMap(sub, pt, {v: "*" for v in part})
        rep = pushout_closure_identity(g, part, phi)
        if not rep["pass"]:
            ok_po = False
    checks.append(_check("out-closure-commutes-with-pushout", ok_po))
    return _suite(
        "union",
        "two in-closed parts glue the nerve level-wise; out-closures commute"
        " with pushouts",
        checks,
    )


# -- coverings -------------------------------------------------------------------------


def suite_covering():
    checks = []
    c3 = corpus.cycle(3)
    c6 = corpus.cycle(6)
    p = DigraphMap(c6, c3, {i: i % 3 for i in range(6)})
    rep2 = is_l_covering(p, 2)
    rep3 = is_l_covering(p, 3)
    checks.append(_check("c6-c3-is-2-covering", rep2["pass"]))
    checks.append(
        _check(
            "c6-c3-fails-at-3-coherently",
            (not rep3["is_l_covering"]) and rep3["conditions_agree"],
        )
    )
    ident = DigraphMap(c3, c3, {i: i for i in range(3)})
    repi = is_l_covering(ident, 4)
    checks.append(_check("identity-all-l", repi["pass"]))
    fold = DigraphMap(
        disjoint_union(c3, c3),
        c3,
        {(i, v): v for i in (0, 1) for v in range(3)},
    )
    checks.append(_check("fold-is-1-covering", is_one_covering(fold)))
    # non-coverings must fail all four conditions coherently
    ok = True
    fan = corpus.small_corpus()["fan"]
    candidates = [
        DigraphMap(fan, c3, {v: 0 for v in fan.vertices}),
        DigraphMap(corpus.line(2), c3, {0: 0, 1: 1, 2: 0}),
        DigraphMap(corpus.line(3), c3, {0: 0, 1: 1, 2: 1, 3: 2}),
    ]
    for cand in candidates:
        r = is_l_covering(cand, 2)
        if not r["conditions_agree"]:
            ok = False
    checks.append(_check("characterizations-agree-on-non-coverings", ok))
    # unique lifting against small horns
    for n, side in ((1, 2), (2, 2)):
        for i in range(1, n + 1):
            for eps in (0, 1):
                horn, cube = horn_inclusion(side, n, i, eps)
                rep = check_unique_lifting(p, horn, cube)
                checks.append(
                    _check(
                        f"unique-lift horn(n={n},i={i},eps={eps},side={side})",
                        rep["pass"],
                    )
                )
    # the slab filtration satisfies the lifting hypotheses or their duals
    for side in (2, 4):
        for i in (1, 2):
            for eps in (0, 1):
                rep = check_two_covering_filtration(side, 2, i, eps)
                checks.append(
                    _check(
                        f"slab-filtration side={side} i={i} eps={eps}",
                        rep["pass"] and rep["full_cube_reached"],
                    )
                )
    return _suite(
        "covering",
        "distance coverings: characterization agreement and unique horn lifting",
        checks,
    )


# -- congruence ------------------------------------------------------------------------


def suite_congruence():
    checks = []
    graphs = corpus.small_corpus()
    ok = True
    triples = (("i1", "i2", "c3"), ("i1", "c3", "c3"), ("two_points", "i1", "fan"))
    for na, nb, nc in triples:
        a, b, c = graphs[na], graphs[nb], graphs[nc]
        ab = homotopy_classes(a, b)
        bc = homotopy_classes(b, c)
        ac = homotopy_classes(a, c)

        def compose(f_images, g_images):
            lookup = dict(zip(b.vertices, g_images))
            return tuple(lookup[x] for x in f_images)

        for i1, f in enumerate(ab.maps):
            for i2, f2 in enumerate(ab.maps):
                if ab.class_of[i1] != ab.class_of[i2]:
                    continue
                for j1, g in enumerate(bc.maps):
                    for j2, g2 in enumerate(bc.maps):
                        if bc.class_of[j1] != bc.class_of[j2]:
                            continue
                        left = ac.class_of_map(compose(f, g))
                        right = ac.class_of_map(compose(f2, g2))
                        if left != right:
                            ok = False
    checks.append(_check("composition-respects-classes", ok))
    # relative classes refine absolute ones
    ok_refine = True
    i2 = graphs["i2"]
    c3 = graphs["c3"]
    rel = homotopy_classes(i2, c3, rel_part=(0,), target_part=(0,))
    absolute = homotopy_classes(i2, c3)
    for x in range(len(rel.maps)):
        for y in range(len(rel.maps)):
            if rel.class_of[x] == rel.class_of[y]:
                if absolute.class_of_map(rel.maps[x]) != absolute.class_of_map(
                    rel.maps[y]
                ):
                    ok_refine = False
    checks.append(_check("relative-refines-absolute", ok_refine))
    return _suite(
        "congruence",
        "the homotopy relation is a congruence; relative classes refine"
        " absolute ones",
        checks,
    )


# -- nerve comparison ---------------------------------------------------------------------


def suite_comparison():
    checks = []
    cases = [
        ("i1", ("r", 1), ("l", 1), ("r", 2)),
        ("c3", ("r", 1), ("l", 1), ("r", 2)),
        ("fan", ("r", 1), ("l", 1)),
        ("point", ("c2", 1), ("c2", 2)),
    ]
    for gname, *kinds in cases:
        g = corpus.small_corpus()[gname]
        for kind, m in kinds:
            cm = comparison_map(kind, g, m, 2)
            inj = cm.is_injective()
            iso01 = all(
                induced_homology_map(cm, deg)["iso"] for deg in (0, 1)
            )
            checks.append(
                _check(f"{kind}* injective+iso {gname} m={m}", inj and iso01)
            )
    # the 4-step jump explodes at truncation 2 on multi-vertex targets
    # (level-2 maps from a 36-cell grid), so it is checked at truncation 1
    for gname in ("i1", "c3"):
        g = corpus.small_corpus()[gname]
        cm = comparison_map("c2", g, 1, 1)
        ok = cm.is_injective() and induced_homology_map(cm, 0)["iso"]
        checks.append(_check(f"c2* injective+H0-iso {gname} (K=1)", ok))
    # the 4-step jump commutes with every realized structure map, checked
    # pointwise on grid vertices (sides 4 -> 8)
    from .nerve import _grid, _insert, _merge, _drop

    t = truncation("c2", 4).assignment
    ok = True
    for n in (1, 2, 3):
        for pt in _grid(8, n - 1):
            for i in range(1, n + 1):
                for eps in (0, 1):
                    left = tuple(t[c] for c in _insert(pt, i, eps * 8))
                    right = _insert(tuple(t[c] for c in pt), i, eps * 4)
                    if left != right:
                        ok = False
        for pt in _grid(8, n):
            for i in range(1, n + 1):
                small = tuple(t[c] for c in pt)
                if tuple(t[c] for c in _drop(pt, i)) != _drop(small, i):
                    ok = False
            for i in range(1, n):
                for eps in (0, 1):
                    if tuple(t[c] for c in _merge(pt, i, eps)) != _merge(
                        small, i, eps
                    ):
                        ok = False
    checks.append(_check("c2-commutes-with-structure-maps (sides 4->8)", ok))
    # nerve levels of the hom digraph match the levels one dimension up;
    # nerve_levels builds its levels by this exponential law, so the levels
    # one dimension up are enumerated by backtracking instead
    interval = standard_interval(1)
    for gname in ("i1", "c3"):
        g = corpus.small_corpus()[gname]
        hom = box_hom(corpus.line(1), g)
        left = nerve_levels(hom, 1, 1, 1)
        ok = all(
            len(left.cubes[n])
            == len(enumerate_digraph_maps(cube_realization(interval, n + 1), g))
            for n in (0, 1)
        )
        checks.append(_check(f"hom-shift-levels {gname}", ok))
    return _suite(
        "comparison",
        "nerve comparison maps are injective and homology-invariant below"
        " the truncation; hom digraph levels shift by one",
        checks,
    )


# -- cubical validation ----------------------------------------------------------------------


def suite_cubical():
    checks = []
    for gname in ("point", "i1", "i2", "c3", "fan", "square"):
        g = corpus.small_corpus()[gname]
        for m in (1, 2):
            top = 3 if len(g.vertices) <= 3 and m == 1 else 2
            x = nerve_levels(g, m, 1, top)
            bad = x.identity_violations()
            checks.append(
                _check(f"identities {gname} m={m} K={top}", not bad, bad[:1] or None)
            )
    for gname, m, top in (("c3", 4, 2), ("point", 2, 3), ("point", 4, 3),
                          ("i1", 2, 3)):
        x = nerve_levels(corpus.small_corpus()[gname], m, 1, top)
        checks.append(
            _check(f"identities {gname} m={m} K={top}", not x.identity_violations())
        )
    return _suite(
        "cubical",
        "face/degeneracy/connection tables satisfy the full identity list",
        checks,
    )


SUITES = {
    "rho": suite_rho,
    "kan": suite_kan,
    "shrinkings": suite_shrinkings,
    "closure": suite_closure,
    "saturation": suite_saturation,
    "ddr": suite_ddr,
    "currying": suite_currying,
    "omega": suite_omega,
    "union": suite_union,
    "covering": suite_covering,
    "congruence": suite_congruence,
    "comparison": suite_comparison,
    "cubical": suite_cubical,
}


def run_suite(name):
    if name == "all":
        reports = [SUITES[k]() for k in sorted(SUITES)]
        return {
            "suite": "all",
            "anchor": "every lemma-level property suite",
            "reports": reports,
            "pass": all(r["pass"] for r in reports),
        }
    if name not in SUITES:
        raise InputError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'"
        )
    return SUITES[name]()
