"""Discrete covering maps: unique arrow lifting, distance-power variants,
and unique right lifting against horn inclusions.

A 1-covering lifts every one-arrow diagram (degenerate ones included)
uniquely through either endpoint.  An l-covering asks this of all
distance-power digraphs up to l; three further characterizations are
evaluated independently so their agreement can be tested.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from operator import and_

from .config import DEFAULT_MAX_MAPS, MAX_HORN_BASE_MAPS
from .digraph import (
    Digraph,
    DigraphMap,
    _map_plan,
    count_digraph_maps,
    distances_from,
    enumerate_digraph_maps,
    iter_digraph_maps,
    pi0,
    power_digraph,
)
from .errors import BadIndex, BudgetExceeded
from .nerve import cube_realization, horn_vertices
from .intervals import standard_interval


def _fibers(p):
    fibers = {}
    for v in p.source.vertices:
        fibers.setdefault(p.assignment[v], []).append(v)
    return fibers


def _step_groups(p):
    """(x, y, forward) -> the source vertices w over y with an arrow or
    equality x -> w (forward) or w -> x (backward), in source order."""
    g = p.source
    order = g._index.__getitem__
    table = {}
    for x in g.vertices:
        for forward, neighbours in (
            (True, g.successors(x)),
            (False, g.predecessors(x)),
        ):
            for w in sorted((x, *neighbours), key=order):
                table.setdefault((x, p.assignment[w], forward), []).append(w)
    return table


def covering_witness(p):
    """The first one-arrow diagram without a unique lift through p, or
    None when p is a 1-covering (`is_one_covering`)."""
    groups = _step_groups(p)
    h = p.target
    for v in p.source.vertices:
        pv = p.assignment[v]
        # k = 0: arrows-or-equality pv -> h2, lift must start at v
        # k = 1: arrows-or-equality h2 -> pv, lift must end at v
        for endpoint, forward, others in (
            (0, True, h.successors(pv)),
            (1, False, h.predecessors(pv)),
        ):
            for h2 in (pv, *others):
                lifts = len(groups.get((v, h2, forward), ()))
                if lifts != 1:
                    edge = (pv, h2) if forward else (h2, pv)
                    return {"vertex": v, "edge": edge, "endpoint": endpoint,
                            "lifts": lifts}
    return None


def is_one_covering(p):
    """Unique lifting of arrows-or-equality through each endpoint.

    For every source vertex g, every map from the one-arrow interval into
    the target hitting p(g) at endpoint k must lift uniquely to a map
    hitting g at k.
    """
    return covering_witness(p) is None


def _power_map(p, k):
    dg = power_digraph(p.source, k)
    dh = power_digraph(p.target, k)
    return DigraphMap(dg, dh, dict(p.assignment))


def _fiber_bijections(p, l, dist_g):
    """Condition (4) of `is_l_covering`; `dist_g` maps each source vertex
    to its `distances_from` up to depth l."""
    fibers = _fibers(p)
    for a in p.target.vertices:
        for b, d in distances_from(p.target, a, l).items():
            matches = []
            for x in fibers.get(a, []):
                near = [y for y in fibers.get(b, []) if y in dist_g[x]]
                if len(near) != 1 or dist_g[x][near[0]] != d:
                    return False
                matches.append(near[0])
            if sorted(matches, key=repr) != sorted(fibers.get(b, []), key=repr):
                return False
    return True


def is_l_covering(p, l):
    """Evaluate the definition and its three characterizations independently.

    (1) every distance power up to l is a 1-covering;
    (2) the l-th power map is a 1-covering and the source is exactly the
        preimage of the target inside its own l-th power;
    (3) p is a 1-covering, and of two walks of length <= l that share their
        start and whose ends lie over one vertex, the ends are equal (and
        dually for shared ends).  A walk from u to v of length <= l exists
        iff dist(u, v) <= l, so (3) is read off the source's distance table
        up to depth l: grouped by (start, p(end)), and by (end, p(start)),
        each group holds one pair;
    (4) unique near-fiber bijections: matched points realize the base
        distance and every other fiber point is farther than l.

    Every distance read is at most l, so every BFS stops at depth l.  All
    four verdicts must agree: a disagreement is reported as
    `conditions_agree: false` and fails the report, never reconciled.
    """
    if l < 1:
        raise BadIndex("the covering index must be >= 1")
    g, h = p.source, p.target
    over = p.assignment

    power_ok = is_one_covering(_power_map(p, l))
    cond1 = power_ok and all(is_one_covering(_power_map(p, k)) for k in range(1, l))

    dist_g = {v: distances_from(g, v, l) for v in g.vertices}
    preimage_arrows = {
        (u, v)
        for u in g.vertices
        for v in dist_g[u]
        if u != v and (over[u] == over[v] or (over[u], over[v]) in h.arrows)
    }
    cond2 = power_ok and preimage_arrows == set(g.arrows)

    pairs = [(u, v) for u in g.vertices for v in dist_g[u]]
    cond3 = (
        is_one_covering(p)
        and len({(u, over[v]) for u, v in pairs}) == len(pairs)
        and len({(v, over[u]) for u, v in pairs}) == len(pairs)
    )

    verdicts = {
        "power-one-coverings": cond1,
        "top-power-and-preimage": cond2,
        "path-pair-rigidity": cond3,
        "fiber-bijections": _fiber_bijections(p, l, dist_g),
    }
    agree = len(set(verdicts.values())) == 1
    return {
        "l": l,
        "conditions": verdicts,
        "conditions_agree": agree,
        "is_l_covering": cond1,
        "pass": cond1 and agree,
    }


# -- unique right lifting -----------------------------------------------------


def _sub_digraph_union(cube, vertex_sets):
    """Union of induced subdigraphs of `cube` (vertices and arrows unioned);
    not induced in general."""
    sets = [set(vs) for vs in vertex_sets]
    seen = set().union(*sets)
    arrows = [a for a in cube.arrows if any(a[0] in s and a[1] in s for s in sets)]
    return Digraph([v for v in cube.vertices if v in seen], arrows)


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
            chained = Digraph(ins, [(u, v) for u, v in linked if u != v])
            if len(pi0(chained)) > 1:
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


def _squares_by_enumeration(p, a, b, budget=DEFAULT_MAX_MAPS):
    """The lifting check by listing: for each base map beta: b -> target
    (at most `budget` of them), pin every vertex of b to the fiber over its
    image; the squares are then the maps a -> source, and the lifts the
    maps b -> source, each counted against the square it restricts to.

    `a.vertices[0]` is enumerated first, so the squares of one base map
    come out anchor by anchor.  Any p, a and b will do; this is the route
    of `check_unique_lifting` off 1-coverings, and an oracle of its counts.
    """
    report = {"squares": 0, "unique": True, "pass": True}
    fibers = _fibers(p)
    restrict = [b.index(v) for v in a.vertices]
    for beta in enumerate_digraph_maps(b, p.target, budget=budget):
        over = {v: fibers.get(y, ()) for v, y in zip(b.vertices, beta)}
        lifts = Counter(
            tuple(images[k] for k in restrict)
            for images in enumerate_digraph_maps(b, p.source, pinned=over)
        )
        for alpha in iter_digraph_maps(a, p.source, pinned=over):
            report["squares"] += 1
            if lifts[alpha] != 1:
                report["unique"] = False
                report["pass"] = False
                report["witness"] = {
                    "beta": [repr(x) for x in beta],
                    "alpha": [repr(x) for x in alpha],
                    "lifts": lifts[alpha],
                }
                return report
    return report


def _twin(p, a, b):
    """A source and target, on integers, whose maps that send b into B and
    a copy a' into E are the squares (beta: b -> B, alpha: a -> E over it)
    of a lifting check of p: E -> B.

    b's vertex of index k is 2k, and its copy 2k + 1 when it lies in a,
    with a's arrows among the copies and an arrow from each copy to its
    twin.  The target is E (index i is i) beside B (index j is len(E) + j)
    with an arrow e -> p(e) for each e, the one step from E into B.
    """
    cover, base = p.source, p.target
    k, e, y = b._index, cover._index, base._index
    shift = len(cover)
    source = Digraph(
        sorted([2 * k[v] for v in b.vertices] + [2 * k[v] + 1 for v in a.vertices]),
        [(2 * k[u], 2 * k[v]) for u, v in b.arrows]
        + [(2 * k[u] + 1, 2 * k[v] + 1) for u, v in a.arrows]
        + [(2 * k[v] + 1, 2 * k[v]) for v in a.vertices],
    )
    target = Digraph(
        range(shift + len(base)),
        [(e[u], e[v]) for u, v in cover.arrows]
        + [(shift + y[u], shift + y[v]) for u, v in base.arrows]
        + [(e[x], shift + y[p.assignment[x]]) for x in cover.vertices],
    )
    return source, target


def check_unique_lifting(p, a, b, budget=DEFAULT_MAX_MAPS):
    """Count the commutative squares (maps b -> target together with
    compatible partial lifts on a) and verify each has exactly one diagonal.

    The lifting hypotheses are not checked here: for horn inclusions they
    hold along the slab filtration instead (`check_two_covering_filtration`).

    When a is a non-empty subdigraph of b (its arrows among b's), p: E -> B
    is a verified 1-covering and a and b are weakly connected, maps are
    counted, never listed.  A lift of b is fixed by its value at one vertex,
    so lifts restrict one-to-one to squares.  Over a prefix P of the base
    maps, in the lister's order, let L(P) count the maps b -> E with each
    placed vertex pinned to the fiber over its image, and S(P) the squares
    (maps of `_twin`); then S(P) >= L(P), with equality exactly when every
    square over P lifts.  S = L at the empty prefix is a pass with S
    squares.  Otherwise the check descends into the first child with S > L,
    adding up the settled squares before it, and at that base map pins a's
    first vertex to each anchor of its fiber in turn.  A count that gives up
    (more than DEFAULT_MAX_MAPS live states) splits its prefix into its
    children instead of settling it.  Other inputs are listed
    (`_squares_by_enumeration`).

    Either route raises BudgetExceeded when b has more than `budget` maps
    into B, and stops at the first square without a unique lift (the
    witness); `squares` counts the squares up to and including it.
    """
    return _unique_lifting(p, a, b, budget, {})


def _unique_lifting(p, a, b, budget, counted):
    """`check_unique_lifting`, with `counted` holding the counts that
    depend on p and b alone, for the checks that share them: the base maps
    under None, and L by (prefix, anchor)."""
    b.check_vertices(a.vertices)
    if not (
        a.vertices
        and a.arrows <= b.arrows
        and is_one_covering(p)
        and len(pi0(a)) == 1
        and len(pi0(b)) == 1
    ):
        return _squares_by_enumeration(p, a, b, budget)
    cover, base = p.source, p.target
    source, target = _twin(p, a, b)
    checks, _, _ = _map_plan(b, base, None)  # prefixes hold base indices
    fibers = _fibers(p)
    over = [fibers.get(y, []) for y in base.vertices]
    # b into B and a' into E, whose copies of placed vertices then lie over
    # their twins' images
    unplaced = {x: range(len(cover)) if x % 2 else range(len(cover), len(target))
                for x in source.vertices}
    root = b.index(a.vertices[0])

    def children(prefix):  # the candidates the lister draws, in its order
        earlier = checks[len(prefix)]
        if not earlier:
            return range(len(base))
        return sorted(reduce(and_, [steps[prefix[j]] for j, steps in earlier]))

    def base_maps(prefix):
        pins = {b.vertices[k]: (base.vertices[y],) for k, y in enumerate(prefix)}
        found = count_digraph_maps(b, base, DEFAULT_MAX_MAPS, pins)
        if found is None:
            found = sum(base_maps(prefix + (y,)) for y in children(prefix))
        return found

    def counts(prefix, anchor=None):
        """(S, L) over `prefix`, or None when a count gives up.  With an
        `anchor`, a's first vertex lifts to it, so each is 0 or 1, and with
        no children left to split into, the counts have no state limit."""
        limit = DEFAULT_MAX_MAPS if anchor is None else float("inf")
        squares = {**unplaced, **{2 * k: (len(cover) + y,) for k, y in enumerate(prefix)}}
        lifts = {b.vertices[k]: over[y] for k, y in enumerate(prefix)}
        if anchor is not None:
            squares[2 * root + 1] = (cover.index(anchor),)
            lifts[a.vertices[0]] = (anchor,)
        key = prefix, anchor
        if key not in counted:
            counted[key] = count_digraph_maps(b, cover, limit, lifts)
        if counted[key] is None:
            return None
        total = count_digraph_maps(source, target, limit, squares)
        return None if total is None else (total, counted[key])

    if None not in counted:
        counted[None] = base_maps(())
    if counted[None] > budget:
        raise BudgetExceeded(f"more than {budget} digraph maps during enumeration")
    report = {"squares": 0, "unique": True, "pass": True}

    def fails(prefix):
        """Add up the squares over `prefix` in the lister's order; True at
        the first square without a lift, which is then the witness."""
        settled = counts(prefix)
        if settled is not None and settled[0] == settled[1]:
            report["squares"] += settled[0]
            return False
        if len(prefix) < len(b):
            return any(fails(prefix + (y,)) for y in children(prefix))
        for anchor in over[prefix[root]]:
            squares, lifts = counts(prefix, anchor)
            report["squares"] += squares
            if squares != lifts:
                report.update({"unique": False, "pass": False, "witness": {
                    "beta": [repr(base.vertices[y]) for y in prefix],
                    "anchor": repr(anchor),
                    "lifts": 0,
                }})
                return True
        return False

    fails(())
    return report


def check_unique_lifting_all_horns(p, side, n):
    """Unique lifting against every (i, eps) horn of the side^n cube: one
    `check_unique_lifting` per horn, with at most MAX_HORN_BASE_MAPS base
    maps, so a horn report is the one `dgh check lifting` prints for that
    horn (within the CLI's map budget).  Any p and any n >= 1 will do.

    On a verified 1-covering no map is listed.  The cube's base maps and
    its lifts over each prefix depend on p and the cube alone, so the
    horns count them once between them.
    """
    cube = cube_realization(standard_interval(side), n)
    counted = {}
    horns = {
        f"{i},{eps}": _unique_lifting(
            p, cube.induced(horn_vertices(side, n, i, eps)), cube, MAX_HORN_BASE_MAPS, counted
        )
        for i in range(1, n + 1)
        for eps in (0, 1)
    }
    return {
        "side": side,
        "n": n,
        "horns": horns,
        "pass": all(r["pass"] for r in horns.values()),
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
