"""Discrete covering maps: unique arrow lifting, distance-power variants,
and unique right lifting against horn inclusions.

A 1-covering lifts every one-arrow diagram (degenerate ones included)
uniquely through either endpoint.  An l-covering asks this of all
distance-power digraphs up to l; three further characterizations are
evaluated independently so their agreement can be tested.
"""

from __future__ import annotations

from .config import DEFAULT_MAX_MAPS, MAX_HORN_BASE_MAPS
from .digraph import (
    Digraph,
    DigraphMap,
    UnionFind,
    distances_from,
    enumerate_digraph_maps,
    iter_digraph_maps,
    power_digraph,
)
from .errors import BadIndex, HypothesesFail, InputError
from .nerve import cube_realization, horn_vertices
from .intervals import standard_interval


def _fibers(p):
    fibers = {}
    for v in p.source.vertices:
        fibers.setdefault(p.assignment[v], []).append(v)
    return fibers


def _steps(g):
    return set(g.arrows) | {(v, v) for v in g.vertices}


def is_one_covering(p, with_witness=False):
    """Unique lifting of arrows-or-equality through each endpoint.

    For every source vertex g, every map from the one-arrow interval into
    the target hitting p(g) at endpoint k must lift uniquely to a map
    hitting g at k.
    """
    g, h = p.source, p.target
    fibers = _fibers(p)
    for v in g.vertices:
        pv = p.assignment[v]
        # k = 0: arrows-or-equality pv -> h2, lift must start at v
        for h2 in (pv,) + tuple(h.successors(pv)):
            lifts = [
                w
                for w in fibers.get(h2, [])
                if g.is_arrow(v, w)
            ]
            if len(lifts) != 1:
                witness = {"vertex": v, "edge": (pv, h2), "endpoint": 0,
                           "lifts": len(lifts)}
                return (False, witness) if with_witness else False
        # k = 1: arrows-or-equality h2 -> pv, lift must end at v
        for h2 in (pv,) + tuple(h.predecessors(pv)):
            lifts = [
                w
                for w in fibers.get(h2, [])
                if g.is_arrow(w, v)
            ]
            if len(lifts) != 1:
                witness = {"vertex": v, "edge": (h2, pv), "endpoint": 1,
                           "lifts": len(lifts)}
                return (False, witness) if with_witness else False
    return (True, None) if with_witness else True


def _power_map(p, k):
    dg = power_digraph(p.source, k)
    dh = power_digraph(p.target, k)
    return DigraphMap(dg, dh, dict(p.assignment))


def _paths_up_to(g, length):
    """All directed walks (vertex sequences along arrows) of length <= `length`."""
    out = [(v,) for v in g.vertices]
    frontier = list(out)
    for _ in range(length):
        nxt = []
        for path in frontier:
            for w in g.successors(path[-1]):
                nxt.append(path + (w,))
        out.extend(nxt)
        frontier = nxt
    return out


def is_l_covering(p, l, full_report=False):
    """Evaluate the definition and its three characterizations independently.

    (1) every distance power up to l is a 1-covering;
    (2) the l-th power map is a 1-covering and the source is exactly the
        preimage of the target inside its own l-th power;
    (3) unique endpoints for short path pairs sharing one end and one
        projected end;
    (4) unique near-fiber bijections: matched points realize the base
        distance and every other fiber point is farther than l.

    All four verdicts must agree (their disagreement is reported, never
    reconciled).
    """
    if l < 1:
        raise BadIndex("the covering index must be >= 1")
    g, h = p.source, p.target

    cond1 = all(is_one_covering(_power_map(p, k)) for k in range(1, l + 1))

    power_ok = is_one_covering(_power_map(p, l))
    dist_g = {v: distances_from(g, v) for v in g.vertices}
    preimage_arrows = set()
    for u in g.vertices:
        for v, d in dist_g[u].items():
            if u != v and d <= l:
                pu, pv = p.assignment[u], p.assignment[v]
                if pu == pv or (pu, pv) in h.arrows:
                    preimage_arrows.add((u, v))
    cond2 = power_ok and preimage_arrows == set(g.arrows)

    cond3 = is_one_covering(p)
    if cond3:
        paths = _paths_up_to(g, l)
        for a in paths:
            for b in paths:
                same_start = a[0] == b[0] and p.assignment[a[-1]] == p.assignment[b[-1]]
                same_end = a[-1] == b[-1] and p.assignment[a[0]] == p.assignment[b[0]]
                if same_start or same_end:
                    if a[0] != b[0] or a[-1] != b[-1]:
                        cond3 = False
                        break
            if not cond3:
                break

    fibers = _fibers(p)
    cond4 = True
    dist_h = {v: distances_from(h, v) for v in h.vertices}
    for a in h.vertices:
        for b, d in dist_h[a].items():
            if d > l:
                continue
            matches = {}
            for x in fibers.get(a, []):
                near = [
                    y
                    for y in fibers.get(b, [])
                    if dist_g[x].get(y, None) is not None and dist_g[x][y] <= l
                ]
                exact = [y for y in near if dist_g[x][y] == d]
                if len(exact) != 1 or len(near) != 1:
                    cond4 = False
                    break
                matches[x] = exact[0]
            if not cond4:
                break
            if sorted(matches.values(), key=repr) != sorted(
                fibers.get(b, []), key=repr
            ):
                cond4 = False
                break
        if not cond4:
            break

    verdicts = {
        "power-one-coverings": cond1,
        "top-power-and-preimage": cond2,
        "path-pair-rigidity": cond3,
        "fiber-bijections": cond4,
    }
    agree = len(set(verdicts.values())) == 1
    if full_report:
        return {
            "l": l,
            "conditions": verdicts,
            "conditions_agree": agree,
            "is_l_covering": cond1,
            "pass": cond1 and agree,
        }
    if not agree:
        raise InputError(
            f"covering characterizations disagree: {verdicts} (library bug "
            "or an unconsidered edge case; please report)"
        )
    return cond1


# -- unique right lifting -----------------------------------------------------


def _sub_digraph_union(cube, vertex_sets):
    """Union of induced subdigraphs of `cube` (vertices and arrows unioned);
    not induced in general."""
    verts = []
    seen = set()
    for vs in vertex_sets:
        for v in vs:
            if v not in seen:
                seen.add(v)
                verts.append(v)
    arrows = set()
    for vs in vertex_sets:
        s = set(vs)
        arrows.update(
            (u, v) for (u, v) in cube.arrows if u in s and v in s
        )
    verts = [v for v in cube.vertices if v in seen]
    return Digraph(verts, arrows)


def check_lifting_hypotheses(a, b):
    """The three one-sided hypotheses for unique right lifting, with
    arrows-or-equality allowed everywhere.

    Hypothesis 2 is graded: "pairwise" when every two in-neighbours from
    `a` share a common predecessor inside `a` (the literal statement), and
    "connected" when the common-predecessor relation merely chains them
    together — which is all the uniqueness argument needs, since agreement
    of the spread values is transitive.  Returns
    {"1": bool, "2": "pairwise"|"connected"|False, "3": bool, "pass": bool}.
    """
    result = {"1": True, "2": "pairwise", "3": True}
    averts = set(a.vertices)
    subdigraph = all((u, v) in b.arrows for (u, v) in a.arrows) and all(
        v in b._index for v in a.vertices
    )
    result["subdigraph"] = subdigraph
    for x in b.vertices:  # (1)
        if x in averts:
            continue
        if not any(b.is_arrow(av, x) for av in a.vertices):
            result["1"] = False
            break
    weakest = "pairwise"
    for x in b.vertices:  # (2)
        ins = [av for av in a.vertices if b.is_arrow(av, x)]
        if len(ins) < 2:
            continue
        linked = {
            (u, v)
            for u in ins
            for v in ins
            if any(a.is_arrow(w, u) and a.is_arrow(w, v) for w in a.vertices)
        }
        if any((u, v) not in linked for u in ins for v in ins):
            weakest = "connected"
            # chain the agreement relation
            position = {v: k for k, v in enumerate(ins)}
            uf = UnionFind(len(ins))
            for u, v in linked:
                uf.union(position[u], position[v])
            if len(set(map(uf.find, range(len(ins))))) > 1:
                weakest = False
                break
    result["2"] = weakest
    for x, y in b.arrows:  # (3)
        found = any(
            b.is_arrow(u, x) and b.is_arrow(v, y)
            for u, v in list(a.arrows) + [(w, w) for w in a.vertices]
        )
        if not found:
            result["3"] = False
            break
    result["pass"] = bool(
        subdigraph and result["1"] and result["2"] and result["3"]
    )
    result["literal"] = bool(
        subdigraph and result["1"] and result["2"] == "pairwise" and result["3"]
    )
    return result


def check_lifting_hypotheses_dual(a, b):
    return check_lifting_hypotheses(a.opposite(), b.opposite())


def unique_lift_count(p, a, b, alpha, beta):
    """Number of maps b -> source restricting to alpha on a and projecting
    to beta (exhaustive; small b only)."""
    count = 0
    pinned = {v: (alpha[v],) for v in a.vertices}
    for images in enumerate_digraph_maps(b, p.source, pinned=pinned):
        if all(
            p.assignment[x] == beta[v]
            for v, x in zip(b.vertices, images)
        ):
            count += 1
    return count


def _weakly_connected(d):
    from .digraph import pi0

    return len(pi0(d)) <= 1


def _spread_plan(d, root, position):
    """How to spread a lift over the weakly connected digraph d from root.

    Returns (schedule, arrows) with every vertex given by `position`, its
    place in the base-map tuples: schedule lists (v, u, forward) in
    breadth-first order over weak adjacency, once for each vertex v other
    than root, where u is placed before v and forward says the arrow runs
    u -> v; arrows lists every arrow of d.
    """
    schedule = []
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            neighbours = [(v, True) for v in d.successors(u)]
            neighbours += [(v, False) for v in d.predecessors(u)]
            for v, forward in neighbours:
                if v not in seen:
                    seen.add(v)
                    schedule.append((position[v], position[u], forward))
                    nxt.append(v)
        frontier = nxt
    return schedule, [(position[u], position[v]) for u, v in d.arrows]


def _step_lifts(p):
    """(x, y, forward) -> the one vertex w over y with an arrow or equality
    x -> w (forward) or w -> x (backward), for every x and y that have
    exactly one such w."""
    g = p.source
    table = {}
    for x in g.vertices:
        for forward, neighbours in (
            (True, g.successors(x)),
            (False, g.predecessors(x)),
        ):
            over = {}
            for w in (x, *neighbours):
                over.setdefault(p.assignment[w], []).append(w)
            for y, ws in over.items():
                if len(ws) == 1:
                    table[x, y, forward] = ws[0]
    return table


def _spread(plan, lifts, steps, beta, root, anchor):
    """The lift of the base map `beta` (a tuple) through `anchor` at
    position `root`, as a list by position; None when it breaks.

    Each scheduled vertex takes the one vertex of its fiber that is one
    step from its placed neighbour (`lifts`, from `_step_lifts`), and the
    result must then preserve every arrow (`steps`: the arrow-or-equality
    pairs of the source).

    The spread order does not matter.  Any lift through `anchor` gives each
    vertex a value in its fiber one step from the value of its placed
    neighbour, and over a verified 1-covering at most one fiber vertex is
    that step away.  So every lift agrees with the spread, in any spanning
    order: the lift is the result, or there is none.
    """
    schedule, arrows = plan
    lift = [None] * len(beta)
    lift[root] = anchor
    try:
        for v, u, forward in schedule:
            lift[v] = lifts[lift[u], beta[v], forward]
    except KeyError:
        return None
    if all((lift[u], lift[v]) in steps for u, v in arrows):
        return lift
    return None


def check_unique_lifting(p, a, b, budget=DEFAULT_MAX_MAPS, skip_hypotheses=False,
                         method="auto"):
    """Enumerate all commutative squares (maps b -> target together with
    compatible partial lifts on a) and verify exactly one diagonal exists.

    For user-supplied pairs the lifting hypotheses (or their dual) are
    checked first and a failure raises HypothesesFail; horn inclusions
    skip that (the hypotheses hold along the slab filtration instead).

    When p is a verified 1-covering and both digraphs are weakly connected,
    lifts are determined by their value at one anchor vertex, so squares
    and lift counts spread in linear time; otherwise the check falls back
    to exhaustive enumeration.
    """
    if not skip_hypotheses:
        direct = check_lifting_hypotheses(a, b)
        if not direct["pass"]:
            dual = check_lifting_hypotheses_dual(a, b)
            if not dual["pass"]:
                failed = next(
                    (k for k in ("subdigraph", "1", "2", "3") if not direct[k]),
                    "?",
                )
                raise HypothesesFail(failed)
    report = {"squares": 0, "unique": True, "pass": True}
    g = p.source
    fibers = _fibers(p)
    fast = (
        method != "brute"
        and a.vertices
        and is_one_covering(p)
        and _weakly_connected(a)
        and _weakly_connected(b)
    )
    a0 = a.vertices[0] if a.vertices else None
    if fast:
        lifts, steps = _step_lifts(p), _steps(g)
        root = b.index(a0)
        plan_a = _spread_plan(a, a0, b._index)
        plan_b = _spread_plan(b, a0, b._index)
    for beta_images in enumerate_digraph_maps(b, p.target, budget=budget):
        if fast:
            for anchor in fibers.get(beta_images[root], []):
                if _spread(plan_a, lifts, steps, beta_images, root, anchor) is None:
                    continue
                report["squares"] += 1
                if _spread(plan_b, lifts, steps, beta_images, root, anchor) is None:
                    report["unique"] = False
                    report["pass"] = False
                    report["witness"] = {
                        "beta": [repr(x) for x in beta_images],
                        "anchor": repr(anchor),
                        "lifts": 0,
                    }
                    return report
        else:
            beta = dict(zip(b.vertices, beta_images))
            restricted = {v: beta[v] for v in a.vertices}
            seen_alphas = []
            for anchor in (fibers.get(beta[a0], []) if a.vertices else [None]):
                pinned = {
                    v: tuple(
                        x
                        for x in g.vertices
                        if p.assignment[x] == restricted[v]
                    )
                    for v in a.vertices
                }
                if a.vertices:
                    pinned[a0] = (anchor,)
                for images in enumerate_digraph_maps(a, g, pinned=pinned):
                    seen_alphas.append(dict(zip(a.vertices, images)))
            for alpha in seen_alphas:
                report["squares"] += 1
                count = unique_lift_count(p, a, b, alpha, beta)
                if count != 1:
                    report["unique"] = False
                    report["pass"] = False
                    report["witness"] = {
                        "beta": [repr(x) for x in beta_images],
                        "alpha": [repr(alpha[v]) for v in a.vertices],
                        "lifts": count,
                    }
                    return report
    return report


def horn_inclusion(side, n, i, eps):
    """The horn realization inside the full cube, as (subdigraph, cube)."""
    cube = cube_realization(standard_interval(side), n)
    horn = cube.induced(horn_vertices(side, n, i, eps))
    return horn, cube


def check_unique_lifting_all_horns(p, side, n):
    """Unique lifting against every (i, eps) horn of one cube, sharing the
    base-map enumeration and the spread across horns.

    Each candidate lift is determined by its value over the grid origin
    (which lies in every horn when n >= 2), so one spread per (base map,
    anchor) settles all horns at once: a valid spread is the unique lift of
    every horn square with that anchor; an invalid spread can only break a
    horn whose restricted square is itself valid, which is then reported.
    Requires a verified one-arrow covering (raises otherwise).
    """
    if n < 2:
        raise BadIndex("the shared-anchor route needs n >= 2; use the generic check")
    if not is_one_covering(p):
        raise InputError("the shared-anchor route needs a verified 1-covering")
    cube = cube_realization(standard_interval(side), n)
    horn_list = [(i, eps) for i in range(1, n + 1) for eps in (0, 1)]
    fibers = _fibers(p)
    lifts, steps = _step_lifts(p), _steps(p.source)
    origin = cube.vertices[0]
    cube_plan = _spread_plan(cube, origin, cube._index)
    horn_plans = {
        key: _spread_plan(
            cube.induced(horn_vertices(side, n, *key)), origin, cube._index
        )
        for key in horn_list
    }
    reports = {
        key: {"squares": 0, "unique": True, "pass": True} for key in horn_list
    }
    for beta in iter_digraph_maps(cube, p.target, budget=MAX_HORN_BASE_MAPS):
        for anchor in fibers.get(beta[0], []):
            if _spread(cube_plan, lifts, steps, beta, 0, anchor) is not None:
                for key in horn_list:
                    reports[key]["squares"] += 1
                continue
            # a horn with a valid restricted square has a lift-less square
            for key in horn_list:
                if _spread(horn_plans[key], lifts, steps, beta, 0, anchor) is not None:
                    reports[key]["squares"] += 1
                    reports[key]["unique"] = False
                    reports[key]["pass"] = False
                    reports[key].setdefault(
                        "witness",
                        {"beta": [repr(x) for x in beta], "anchor": repr(anchor)},
                    )
    return {
        "side": side,
        "n": n,
        "horns": {f"{i},{eps}": reports[(i, eps)] for (i, eps) in horn_list},
        "pass": all(r["pass"] for r in reports.values()),
    }


def slab_filtration(side, n, i, eps):
    """The increasing union of horn-plus-slab subdigraphs from the horn to
    the full cube; each consecutive inclusion satisfies the lifting
    hypotheses or their dual (checked by the caller)."""
    cube = cube_realization(standard_interval(side), n)
    horn_vs = horn_vertices(side, n, i, eps)
    stages = []
    for k in range(side + 1):
        if eps == 1:
            band = range(0, k + 1)
        else:
            band = range(side - k, side + 1)
        slab = [
            v
            for v in cube.vertices
            if v[i - 1] in band
        ]
        stages.append(_sub_digraph_union(cube, [slab, horn_vs]))
    return stages


def check_two_covering_filtration(side, n, i, eps):
    """Each consecutive slab inclusion satisfies the lifting hypotheses or
    their dual (hypothesis 2 in at least the connected form)."""
    stages = slab_filtration(side, n, i, eps)
    results = []
    for k in range(1, len(stages)):
        a, b = stages[k - 1], stages[k]
        direct = check_lifting_hypotheses(a, b)
        dual = check_lifting_hypotheses_dual(a, b)
        results.append(
            {
                "step": k,
                "direct": direct["pass"],
                "direct_literal": direct["literal"],
                "dual": dual["pass"],
                "dual_literal": dual["literal"],
                "pass": direct["pass"] or dual["pass"],
            }
        )
    return {
        "steps": results,
        "pass": all(r["pass"] for r in results),
        "full_cube_reached": set(stages[-1].vertices)
        == set(cube_realization(standard_interval(side), n).vertices),
    }
