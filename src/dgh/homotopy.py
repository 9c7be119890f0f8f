"""Homotopy classes of digraph maps, class towers, loop stages, and
directed deformation retracts.

Two maps are one-step related when every vertex image admits an arrow (or
equality) between them; homotopy is the symmetric-transitive closure, i.e.
weak connectivity of the box hom.  Relative variants additionally pin the
maps pointwise on a chosen part of the source.

The classes are found by a search over bitsets of map indices
(`digraph.one_step_components`): a class starts at the least map not yet
reached and grows by the heads and tails of its members, each found as one
AND of per-position tables, until no map is left unreached.  No one-step
pair is listed for it; `HomotopyClasses.edges` lists them when it is read.
"""

from __future__ import annotations

from functools import cached_property

from .config import DEFAULT_MAX_MAPS
from .digraph import (
    DigraphMap,
    DigraphPair,
    INFINITY,
    box_hom,
    distances_from,
    enumerate_digraph_maps,
    one_step_components,
    one_step_pairs,
    pair_box_hom,
)
from .errors import BadIndex, InputError, NotInClosed
from .intervals import BASEPOINT, TowerSpec, sphere_digraph, standard_interval
from .nerve import boundary_vertices, cube_realization


class HomotopyClasses:
    """Enumerated maps with their partition into homotopy classes.

    maps     : image tuples in source vertex order, lexicographic
    class_of : map index -> class index (classes numbered by least member)
    edges    : the one-step index pairs (a, b), an arrow maps[a] -> maps[b];
               `one_step_pairs`, computed when first read, since the classes
               are found without them
    """

    def __init__(self, source, target, maps, class_of, rel_positions):
        self.source = source
        self.target = target
        self.maps = maps
        self.class_of = class_of
        self.rel_positions = rel_positions
        self._index = {t: k for k, t in enumerate(maps)}

    @cached_property
    def edges(self):
        return one_step_pairs(self.source, self.target, self.maps, self.rel_positions)

    @property
    def n_classes(self):
        return len(set(self.class_of)) if self.class_of else 0

    def representatives(self):
        seen = {}
        for k, c in enumerate(self.class_of):
            seen.setdefault(c, k)
        return [self.maps[seen[c]] for c in sorted(seen)]

    def class_of_map(self, images):
        return self.class_of[self._index[tuple(images)]]


def homotopy_classes(
    source,
    target,
    rel_part=(),
    target_part=None,
    budget=DEFAULT_MAX_MAPS,
):
    """The enumerated maps source -> target (optionally restricted to maps
    sending rel_part into target_part, with homotopies fixed pointwise on
    rel_part) and their classes, the weak components of the box hom.

    The components come from a bitset search over the heads | tails of
    each map (`one_step_components`), which stops as soon as every map is
    reached; the one-step pairs are not listed.
    """
    pinned = None
    if target_part is not None:
        target.check_vertices(target_part)
        pinned = {v: tuple(target_part) for v in rel_part}
    maps = enumerate_digraph_maps(source, target, budget=budget, pinned=pinned)
    rel_positions = tuple(source.index(v) for v in rel_part)
    class_of = one_step_components(source, target, maps, rel_positions)
    return HomotopyClasses(source, target, maps, class_of, rel_positions)


# -- class towers -------------------------------------------------------------


class AnTower:
    """Per-stage pointed relative classes and the precomposition transitions.

    stages[s]      : HomotopyClasses at tower stage s+1 (list is 0-based)
    transitions[s] : class index at stage s+1 -> class index at stage s+2
    stabilization  : first stage window [s, s+1] with a bijective transition,
                     or None.  Reported as evidence only; nothing beyond the
                     computed window is claimed.
    """

    def __init__(self, target, base, n, tower, stages, transitions):
        self.target = target
        self.base = base
        self.n = n
        self.tower = tower
        self.stages = stages
        self.transitions = transitions
        self.stabilization = self._find_stable_window()

    def class_counts(self):
        return [s.n_classes for s in self.stages]

    def _find_stable_window(self):
        """Largest suffix of stages whose transitions are all bijective;
        reported as a window (first stable stage, last computed stage)."""
        start = None
        for s in range(len(self.transitions), 0, -1):
            tr = self.transitions[s - 1]
            a = self.stages[s - 1].n_classes
            b = self.stages[s].n_classes
            if a == b and len(set(tr)) == a:
                start = s
            else:
                break
        if start is None:
            return None
        return (start, len(self.stages))


def an_tower(g, base, n, tower, max_stage, budget=DEFAULT_MAX_MAPS):
    """Stage s holds pointed relative classes of maps from the n-fold box
    power of the stage interval (boundary pinned to the basepoint); the
    transition to stage s+1 precomposes with the tower shrinking's power.
    `tower` names the kind of the tower, one of `intervals.TOWER_KINDS`.

    Transitions are checked to be well defined on classes: every class at
    stage s must land in a single class at stage s+1.
    """
    tower = TowerSpec(tower)
    if n < 0 or max_stage < 1:
        raise BadIndex("need n >= 0 and max_stage >= 1")
    stages = []
    for s in range(1, max_stage + 1):
        interval = tower.interval(s)
        cube = cube_realization(interval, n)
        part = boundary_vertices(interval.n_arrows, n)
        stages.append(
            homotopy_classes(cube, g, rel_part=part, target_part=(base,), budget=budget)
        )
    transitions = []
    for s in range(max_stage - 1):
        shr = tower.transition(s + 1).assignment
        small, big = stages[s], stages[s + 1]
        # pull[k]: the small-cube position of the image of big-cube vertex k
        pull = [small.source.index(tuple(shr[c] for c in w)) for w in big.source.vertices]
        table = [big.class_of_map(tuple(map(images.__getitem__, pull))) for images in small.maps]
        class_table = {}
        for k, c in enumerate(small.class_of):
            prev = class_table.setdefault(c, table[k])
            if prev != table[k]:
                raise InputError(
                    f"transition at stage {s + 1} not constant on classes"
                )
        transitions.append([class_table[c] for c in sorted(class_table)])
    return AnTower(g, base, n, tower, stages, transitions)


# -- path and loop stages ------------------------------------------------------


def path_stage(g, m):
    """The box hom from the standard m-interval with both endpoint
    evaluations; stage 0 is g itself with identity evaluations."""
    paths = box_hom(standard_interval(m).to_digraph(), g)
    p0 = DigraphMap(paths, g, {t: t[0] for t in paths.vertices}, _trusted=True)
    p1 = DigraphMap(paths, g, {t: t[-1] for t in paths.vertices}, _trusted=True)
    return paths, p0, p1


def loop_stage(g, base, m):
    """Pointed maps from the stage-m circle (boundary-collapsed interval
    power) into (g, base), with one-step arrows: the relative box hom of
    the pointed pairs."""
    circle = sphere_digraph(standard_interval(m), 1)
    return pair_box_hom(circle, DigraphPair(g, (base,))).ambient


def loop_stage_pullback_check(g, base, m):
    """Exact finite-stage check that the loop stage is the pullback of the
    endpoint evaluations against the basepoint inclusion.

    The pullback is computed from the path stage as the induced subdigraph
    on the fiber of (p0, p1) over (base, base); the loop stage is built
    independently from the collapsed circle.  They must agree under the
    canonical vertex bijection (restrict a loop to the interval's interior).
    """
    paths, p0, p1 = path_stage(g, m)
    fiber = [
        t
        for t in paths.vertices
        if p0.assignment[t] == base and p1.assignment[t] == base
    ]
    pullback = paths.induced(fiber)
    loops = loop_stage(g, base, m)
    circle = sphere_digraph(standard_interval(m), 1)
    amb = circle.ambient

    def loop_to_path(images):
        lookup = dict(zip(amb.vertices, images))
        return tuple(
            lookup[BASEPOINT] if x in (0, m) else lookup[(x,)]
            for x in range(m + 1)
        )

    translated_vertices = [loop_to_path(t) for t in loops.vertices]
    if sorted(translated_vertices) != sorted(pullback.vertices):
        return {"pass": False, "reason": "vertex sets differ"}
    tr = dict(zip(loops.vertices, translated_vertices))
    loops_arrows = {(tr[a], tr[b]) for (a, b) in loops.arrows}
    if loops_arrows != set(pullback.arrows):
        return {"pass": False, "reason": "arrow sets differ"}
    return {"pass": True, "vertices": len(fiber), "arrows": len(pullback.arrows)}


# -- directed deformation retracts ---------------------------------------------


class DdrWitness:
    """An in-closed part with a candidate one-step retraction eta."""

    def __init__(self, ambient, part, eta):
        self.ambient = ambient
        self.part = tuple(part)
        if isinstance(eta, DigraphMap):
            if eta.source != ambient or eta.target != ambient:
                raise InputError("eta must be an endomap of the ambient digraph")
            self.eta = eta
        else:
            self.eta = DigraphMap(ambient, ambient, dict(eta))


def verify_ddr(witness):
    """Check the three retract conditions and, independently, the iterate
    reformulation (some power of eta reaches the part, and shortest paths
    from the part factor through the eta-orbit); both verdicts must agree.
    """
    from .covers import is_in_closed

    g = witness.ambient
    part = set(witness.part)
    eta = witness.eta.assignment
    if not is_in_closed(g, part):
        raise NotInClosed("the part is not in-closed in the ambient digraph")

    report = {"conditions": {}, "pass": True}

    def set_cond(name, ok, witness_detail=None):
        entry = {"pass": bool(ok)}
        if witness_detail is not None and not ok:
            entry["witness"] = witness_detail
        report["conditions"][name] = entry
        if not ok:
            report["pass"] = False

    bad = next((v for v in g.vertices if not g.is_arrow(eta[v], v)), None)
    set_cond("one-step-arrow", bad is None, repr(bad))

    bad = next((h for h in witness.part if eta[h] != h), None)
    set_cond("fixes-part", bad is None, repr(bad))

    # Iterate reformulation: a minimal power of eta lands in the part, and
    # shortest paths from the part factor through the eta-orbit.
    ok_iter = True
    witness_iter = None
    landing = {}  # v outside the part -> (where its eta-orbit lands, steps)
    for v in g.vertices:
        x, steps = v, 0
        seen = set()
        while x not in part:
            if x in seen:
                ok_iter = False
                witness_iter = repr(v)
                break
            seen.add(x)
            x = eta[x]
            steps += 1
        if not ok_iter:
            break
        if steps:
            landing[v] = (x, steps)

    # One BFS per h serves both conditions.  The distance-step witness is
    # the first failing h in part order, then v in vertex order; the
    # iterate witness the first failing (v, h) with v in vertex order,
    # then h in part order.
    ok3 = True
    witness3 = None
    outside = list(landing) if ok_iter else []
    first = len(outside)
    for h in witness.part:
        if not (ok3 or first):
            break
        dist = distances_from(g, h, INFINITY)
        if ok3:
            for v in g.vertices:
                if v not in part and dist.get(v, INFINITY) != dist.get(eta[v], INFINITY) + 1:
                    ok3 = False
                    witness3 = (repr(h), repr(v))
                    break
        for i, v in enumerate(outside[:first]):
            top, n = landing[v]
            if dist.get(top, INFINITY) + n != dist.get(v, INFINITY):
                ok_iter = False
                witness_iter = (repr(h), repr(v))
                first = i
                break
    set_cond("distance-step", ok3, witness3)
    set_cond("iterate-reformulation", ok_iter, witness_iter)

    # Given the first two conditions, the distance condition and the
    # iterate reformulation are equivalent; record that the two verdicts
    # agree whenever the comparison is meaningful.
    meaningful = (
        report["conditions"]["one-step-arrow"]["pass"]
        and report["conditions"]["fixes-part"]["pass"]
    )
    set_cond("reformulation-agrees", (ok3 == ok_iter) if meaningful else True)
    return report


def verify_oddr(g, part, eta_on_out):
    """Check that the part deformation-retracts its out-closure.

    eta_on_out may be a DigraphMap on the induced out-closure or a plain
    assignment dict for its vertices.
    """
    from .covers import is_in_closed, out_closure

    if not is_in_closed(g, part):
        raise NotInClosed("the part is not in-closed in the ambient digraph")
    out = g.induced(out_closure(g, part))
    if isinstance(eta_on_out, DigraphMap):
        eta = DigraphMap(out, out, eta_on_out.assignment)
    else:
        eta = DigraphMap(out, out, {v: eta_on_out[v] for v in out.vertices})
    report = verify_ddr(DdrWitness(out, part, eta))
    report["out_closure_size"] = len(out.vertices)
    return report
