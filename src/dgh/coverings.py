"""Discrete covering maps: unique arrow lifting, distance-power variants,
and unique right lifting against horn inclusions.

A 1-covering lifts every one-arrow diagram (degenerate ones included)
uniquely through either endpoint.  An l-covering asks this of all
distance-power digraphs up to l; three further characterizations are
evaluated independently so their agreement can be tested.
"""

from __future__ import annotations

from collections import Counter

from .config import DEFAULT_MAX_MAPS, MAX_HORN_BASE_MAPS
from .digraph import (
    Digraph,
    DigraphMap,
    count_digraph_maps,
    distances_from,
    enumerate_digraph_maps,
    iter_digraph_maps,
    pi0,
    power_digraph,
)
from .errors import BadIndex
from .nerve import cube_realization, horn_vertices
from .intervals import standard_interval


def _fibers(p):
    fibers = {}
    for v in p.source.vertices:
        fibers.setdefault(p.assignment[v], []).append(v)
    return fibers


def _steps(g):
    return set(g.arrows) | {(v, v) for v in g.vertices}


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


def _covering_witness(p, groups):
    """The first one-arrow diagram without a unique lift, or None; the
    lifts are read from `groups` (`_step_groups(p)`)."""
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


def is_one_covering(p, with_witness=False):
    """Unique lifting of arrows-or-equality through each endpoint.

    For every source vertex g, every map from the one-arrow interval into
    the target hitting p(g) at endpoint k must lift uniquely to a map
    hitting g at k.
    """
    witness = _covering_witness(p, _step_groups(p))
    return (witness is None, witness) if with_witness else witness is None


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


def _fiber_bijections(p, l, dist_g):
    """Condition (4) of `is_l_covering`; `dist_g` maps each source vertex
    to its `distances_from`."""
    fibers = _fibers(p)
    for a in p.target.vertices:
        for b, d in distances_from(p.target, a).items():
            if d > l:
                continue
            matches = []
            for x in fibers.get(a, []):
                near = [y for y in fibers.get(b, []) if dist_g[x].get(y, l + 1) <= l]
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
    (3) unique endpoints for short path pairs sharing one end and one
        projected end;
    (4) unique near-fiber bijections: matched points realize the base
        distance and every other fiber point is farther than l.

    All four verdicts must agree: a disagreement is reported as
    `conditions_agree: false` and fails the report, never reconciled.
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
        cond3 = not any(
            a[0] != b[0] or a[-1] != b[-1]
            for a in paths
            for b in paths
            if (a[0] == b[0] and p.assignment[a[-1]] == p.assignment[b[-1]])
            or (a[-1] == b[-1] and p.assignment[a[0]] == p.assignment[b[0]])
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


def _step_lifts(groups):
    """The one-element entries of `_step_groups`, as (x, y, forward) -> w."""
    return {key: ws[0] for key, ws in groups.items() if len(ws) == 1}


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


def _squares_by_enumeration(p, a, b, budget=DEFAULT_MAX_MAPS):
    """The lifting check by listing: for each base map beta: b -> target
    (at most `budget` of them), pin every vertex of b to the fiber over its
    image; the squares are then the maps a -> source, and the lifts the
    maps b -> source, each counted against the square it restricts to.

    `a.vertices[0]` is enumerated first, so the squares of one base map
    come out anchor by anchor.  Any p, a and b will do; this is the oracle
    of the spread in `check_unique_lifting`.
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


def _squares_by_counting(p, b, root, budget):
    """The number of squares of a lifting check that passes, found by
    counting maps instead of listing them: the number of pairs (beta,
    anchor) when the counts show that every one of them lifts, else None.

    Let p: E -> B be a verified 1-covering and b weakly connected.  A lift
    of b is fixed by its value at `root` (the spread, `_spread`), so
    lift -> (p o lift, lift(root)) is injective into the pairs (beta, e)
    with beta: b -> B and e in the fiber over beta(root).  If
    #Hom(b, E) = sum over beta of |p^-1(beta(root))|, that injection
    between finite sets of one size is onto: every pair lifts, so every
    spread from every anchor succeeds and the sum is the number of squares.

    The sum is counted only when #Hom(b, B) is at most `budget`, so that a
    base-map ceiling that listing would trip is left to the listing, which
    raises.  The live states of a count are held in memory, so there are
    at most DEFAULT_MAX_MAPS of them, whatever `budget` is.  A count that
    gives up, and counts that differ, give None.
    """
    states = min(budget, DEFAULT_MAX_MAPS)
    base = count_digraph_maps(b, p.target, states)
    if base is None or base > budget:
        return None
    fiber_sizes = {y: len(xs) for y, xs in _fibers(p).items()}
    pairs = count_digraph_maps(b, p.target, states, root=root, weight=fiber_sizes)
    lifts = count_digraph_maps(b, p.source, states)
    return pairs if pairs is not None and pairs == lifts else None


def check_unique_lifting(p, a, b, budget=DEFAULT_MAX_MAPS):
    """Count the commutative squares (maps b -> target together with
    compatible partial lifts on a) and verify each has exactly one diagonal.

    The lifting hypotheses are not checked here: for horn inclusions they
    hold along the slab filtration instead (`check_two_covering_filtration`).

    When a is a non-empty subdigraph of b (its arrows among b's), p is a
    verified 1-covering and a and b are each weakly connected, a lift is
    determined by its value at one anchor vertex.  A pass is then settled
    by counting maps (`_squares_by_counting`), without listing any; when
    the counts do not settle it, the squares and lifts spread in linear
    time per base map.  Otherwise the check lists them
    (`_squares_by_enumeration`).  At most `budget` base maps.  Either route
    stops at the first square without a unique lift (the witness), and
    `squares` counts the squares up to and including it.

    One spread settles most squares: a lift of b through the anchor
    restricts to a lift of a through it, which is then the square (the one
    lift of a there).  Only when b's spread breaks is a spread too, to tell
    a square without a lift (the failure) from no square at all.
    """
    return _unique_lifting(p, a, b, budget, {})


def _unique_lifting(p, a, b, budget, counted):
    """`check_unique_lifting`, with `counted` holding the results of
    `_squares_by_counting(p, b, root, budget)` by root, for the checks
    that share p, b and budget."""
    b.check_vertices(a.vertices)
    groups = _step_groups(p)
    if not (
        a.vertices
        and a.arrows <= b.arrows
        and _covering_witness(p, groups) is None
        and len(pi0(a)) == 1
        and len(pi0(b)) == 1
    ):
        return _squares_by_enumeration(p, a, b, budget)
    a0 = a.vertices[0]
    if a0 not in counted:
        counted[a0] = _squares_by_counting(p, b, a0, budget)
    squares = counted[a0]
    if squares is not None:
        return {"squares": squares, "unique": True, "pass": True}
    report = {"squares": 0, "unique": True, "pass": True}
    fibers = _fibers(p)
    lifts, steps = _step_lifts(groups), _steps(p.source)
    root = b.index(a0)
    plan_a = _spread_plan(a, a0, b._index)
    plan_b = _spread_plan(b, a0, b._index)
    for beta_images in enumerate_digraph_maps(b, p.target, budget=budget):
        for anchor in fibers.get(beta_images[root], []):
            if _spread(plan_b, lifts, steps, beta_images, root, anchor) is not None:
                report["squares"] += 1
            elif _spread(plan_a, lifts, steps, beta_images, root, anchor) is not None:
                report["squares"] += 1
                report["unique"] = False
                report["pass"] = False
                report["witness"] = {
                    "beta": [repr(x) for x in beta_images],
                    "anchor": repr(anchor),
                    "lifts": 0,
                }
                return report
    return report


def check_unique_lifting_all_horns(p, side, n):
    """Unique lifting against every (i, eps) horn of the side^n cube: one
    `check_unique_lifting` per horn, with at most MAX_HORN_BASE_MAPS base
    maps, so a horn report is the one `dgh check lifting` prints for that
    horn (within the CLI's map budget).

    On a verified 1-covering a pass is settled by counting maps, without
    listing any; a failing horn stops at its first square without a lift,
    which is its witness.  Any p and any n >= 1 will do.

    The horns share one cube, so its maps are counted once per anchor: at
    n >= 2 every horn's first vertex is the origin, and one count serves
    all 2n horns.
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
