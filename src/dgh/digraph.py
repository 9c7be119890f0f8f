"""Finite digraphs, digraph maps, pairs, and the basic constructions.

Conventions used throughout the library:

* Vertices are ordered; every set-valued output is emitted in the induced
  lexicographic order of that ordering, so results are reproducible.
* Arrows are irreflexive pairs.  Degenerate arrows (v, v) are implicit:
  ``is_arrow(v, v)`` answers True for every vertex, but degenerate arrows
  are never stored or counted.
* Unreachability is the float infinity sentinel ``INFINITY``, never a
  large integer, so ``d == d + 1`` holds exactly for unreachable pairs.

All values are immutable after construction and safe to share between
threads; operations are pure functions of their inputs.
"""

from __future__ import annotations

import re
from collections import deque
from functools import reduce
from itertools import compress, count
from operator import and_, contains, getitem, itemgetter, ne, or_

from .config import DEFAULT_MAX_MAPS
from .errors import (
    BudgetExceeded,
    InputError,
    NotDigraphMap,
    NotInduced,
    UnknownVertex,
)

INFINITY = float("inf")


class Digraph:
    """A finite digraph with ordered vertices and an irreflexive arrow set."""

    __slots__ = ("vertices", "arrows", "_index", "_succ", "_pred", "_hash")

    def __init__(self, vertices, arrows=()):
        vertices = tuple(vertices)
        index = {}
        for v in vertices:
            if v in index:
                raise InputError(f"duplicate vertex {v!r}")
            index[v] = len(index)
        arrow_set = set()
        for u, v in arrows:
            if u not in index:
                raise UnknownVertex(f"arrow source {u!r} is not a vertex")
            if v not in index:
                raise UnknownVertex(f"arrow target {v!r} is not a vertex")
            if u == v:
                raise InputError(
                    f"self-loop at {u!r}: degenerate arrows are implicit"
                )
            arrow_set.add((u, v))
        self.vertices = vertices
        self.arrows = frozenset(arrow_set)
        self._index = index
        succ = {v: [] for v in vertices}
        pred = {v: [] for v in vertices}
        for u, v in sorted(arrow_set, key=lambda a: (index[a[0]], index[a[1]])):
            succ[u].append(v)
            pred[v].append(u)
        self._succ = {v: tuple(ws) for v, ws in succ.items()}
        self._pred = {v: tuple(ws) for v, ws in pred.items()}
        self._hash = hash((vertices, self.arrows))

    # -- basic queries -------------------------------------------------

    def __len__(self):
        return len(self.vertices)

    def __contains__(self, v):
        return v in self._index

    def __eq__(self, other):
        return (
            isinstance(other, Digraph)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Digraph({len(self.vertices)} vertices, {len(self.arrows)} arrows)"

    def index(self, v):
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {v!r}") from None

    def check_vertices(self, vertices):
        """Raise UnknownVertex on the first of `vertices` that is not a vertex."""
        for v in vertices:
            self.index(v)

    def is_arrow(self, u, v):
        """Arrow-or-equality query; degenerate arrows answer True."""
        return u == v or (u, v) in self.arrows

    def successors(self, v):
        return self._succ[v]

    def predecessors(self, v):
        return self._pred[v]

    def sorted_arrows(self):
        ix = self._index
        return sorted(self.arrows, key=lambda a: (ix[a[0]], ix[a[1]]))

    # -- standard constructions ----------------------------------------

    def opposite(self):
        return Digraph(self.vertices, ((v, u) for u, v in self.arrows))

    def induced(self, subset):
        """Induced subdigraph on `subset`, kept in ambient vertex order."""
        chosen = set(subset)
        self.check_vertices(chosen)
        verts = tuple(v for v in self.vertices if v in chosen)
        arrows = [(u, v) for (u, v) in self.arrows if u in chosen and v in chosen]
        return Digraph(verts, arrows)


def disjoint_union(*graphs):
    """Disjoint union; tags vertices as (i, v) only if labels collide."""
    seen = set()
    collide = False
    for g in graphs:
        for v in g.vertices:
            if v in seen:
                collide = True
            seen.add(v)
    verts, arrows = [], []
    for i, g in enumerate(graphs):
        lab = (lambda v, i=i: (i, v)) if collide else (lambda v: v)
        verts.extend(lab(v) for v in g.vertices)
        arrows.extend((lab(u), lab(v)) for (u, v) in g.sorted_arrows())
    return Digraph(verts, arrows)


def point(label="*"):
    return Digraph((label,))


class DigraphMap:
    """A total vertex assignment preserving arrows-or-equality.

    The constructor rejects exactly the assignments violating the
    preservation invariant, raising NotDigraphMap.
    """

    __slots__ = ("source", "target", "assignment", "_hash")

    def __init__(self, source, target, assignment, _trusted=False):
        self.source = source
        self.target = target
        if not _trusted:
            assignment = dict(assignment)
            for v in source.vertices:
                if v not in assignment:
                    raise InputError(f"no image for vertex {v!r}")
                if assignment[v] not in target._index:
                    raise UnknownVertex(f"image {assignment[v]!r} is not a target vertex")
            if len(assignment) != len(source.vertices):
                raise InputError("assignment mentions vertices outside the source")
            for u, v in source.arrows:
                a, b = assignment[u], assignment[v]
                if a != b and (a, b) not in target.arrows:
                    raise NotDigraphMap(
                        f"arrow {(u, v)!r} maps to non-arrow {(a, b)!r}"
                    )
        self.assignment = assignment
        self._hash = hash((source, target, self.image_tuple()))

    @classmethod
    def identity(cls, g):
        return cls(g, g, {v: v for v in g.vertices}, _trusted=True)

    @classmethod
    def constant(cls, source, target, value):
        return cls(source, target, {v: value for v in source.vertices})

    def __call__(self, v):
        return self.assignment[v]

    def image_tuple(self):
        return tuple(self.assignment[v] for v in self.source.vertices)

    def compose(self, other):
        """self after other (other first, then self)."""
        if other.target is not self.source and other.target != self.source:
            raise InputError("composition mismatch")
        return DigraphMap(
            other.source,
            self.target,
            {v: self.assignment[other.assignment[v]] for v in other.source.vertices},
            _trusted=True,
        )

    def __eq__(self, other):
        return (
            isinstance(other, DigraphMap)
            and self.source == other.source
            and self.target == other.target
            and self.image_tuple() == other.image_tuple()
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"DigraphMap({self.source!r} -> {self.target!r})"


class DigraphPair:
    """A digraph together with an induced subdigraph given by vertices."""

    __slots__ = ("ambient", "part")

    def __init__(self, ambient, part):
        self.ambient = ambient
        chosen = set(part)
        ambient.check_vertices(chosen)
        self.part = tuple(v for v in ambient.vertices if v in chosen)

    def __eq__(self, other):
        return (
            isinstance(other, DigraphPair)
            and self.ambient == other.ambient
            and self.part == other.part
        )

    def __hash__(self):
        return hash((self.ambient, self.part))


# -- products and homs -------------------------------------------------


def box_product(g, h):
    """Box product: one coordinate moves along an arrow per step."""
    verts = [(a, b) for a in g.vertices for b in h.vertices]
    arrows = []
    for a, b in verts:
        for a2 in g.successors(a):
            arrows.append(((a, b), (a2, b)))
        for b2 in h.successors(b):
            arrows.append(((a, b), (a, b2)))
    return Digraph(verts, arrows)


def pair_box_product(p, q):
    """Box product of pairs: part is the union of the two mixed products."""
    amb = box_product(p.ambient, q.ambient)
    left = set(p.part)
    right = set(q.part)
    part = [v for v in amb.vertices if v[0] in left or v[1] in right]
    return DigraphPair(amb, part)


def _map_plan(source, target, pinned):
    """The plan that `iter_digraph_maps` and `count_digraph_maps` share:
    the source vertices are placed in source order, and a target vertex is
    named by its index.

    Returns (checks, candidates, last), indexed by source position k.
    checks[k] has a pair (j, steps) per arrow between k and an earlier
    position j: steps[u] is u with its successors (arrow j -> k) or its
    predecessors (arrow k -> j), so a map sends k into steps[image of j].
    candidates[k] is pinned[v] as indices, in its order, for a pinned
    vertex v, and None when every target vertex is a candidate.  last[k]
    is the last position adjacent to k, or k.
    """
    index = target._index
    succ, pred = (
        [frozenset([index[v], *map(index.__getitem__, follow(v))]) for v in target.vertices]
        for follow in (target.successors, target.predecessors)
    )
    pos = source._index
    checks = [[] for _ in pos]
    last = list(range(len(pos)))
    for u, v in source.sorted_arrows():
        i, j = sorted((pos[u], pos[v]))
        checks[j].append((i, succ if pos[u] == i else pred))
        last[i] = max(last[i], j)
    pinned = pinned or {}
    candidates = [
        tuple(map(target.index, pinned[v])) if v in pinned else None for v in pos
    ]
    return checks, candidates, last


def iter_digraph_maps(source, target, budget=DEFAULT_MAX_MAPS, pinned=None):
    """Yield all digraph maps source -> target as image tuples, in
    lexicographic order of the candidates.

    A depth-first walk of `_map_plan`.  A position with placed neighbours
    draws its candidates from the intersection of their step sets, in
    target order, or in the order of its tuple in `pinned`; one without
    takes that tuple or every target vertex.  Each position's candidates
    are found once per tuple of its neighbours' images.  Raises
    BudgetExceeded when more than `budget` maps exist.
    """
    checks, candidates, _ = _map_plan(source, target, pinned)
    vertices, index = target.vertices, target._index
    n = len(checks)
    if n == 0:
        yield ()
        return
    images = [None] * n
    # memo[k]: position k's candidates by its neighbours' images (or by None)
    keys = [
        itemgetter(*[j for j, _ in earlier]) if earlier else None for earlier in checks
    ]
    memo = [{} for _ in checks]

    def options(k):
        key = keys[k] and keys[k](images)
        got = memo[k].get(key)
        if got is None:
            got = candidates[k]
            if checks[k]:
                common = reduce(and_, [s[index[images[j]]] for j, s in checks[k]])
                got = sorted(common) if got is None else [c for c in got if c in common]
            got = memo[k][key] = vertices if got is None else [vertices[c] for c in got]
        return got

    found = 0
    stack = [iter(options(0))]
    while stack:
        k = len(stack) - 1
        for c in stack[-1]:
            images[k] = c
            if k + 1 < n:
                stack.append(iter(options(k + 1)))
                break
            found += 1
            if found > budget:
                raise BudgetExceeded(
                    f"more than {budget} digraph maps during enumeration"
                )
            yield tuple(images)
        else:
            stack.pop()


def enumerate_digraph_maps(source, target, budget=DEFAULT_MAX_MAPS, pinned=None):
    """Materialized form of `iter_digraph_maps`."""
    return list(iter_digraph_maps(source, target, budget=budget, pinned=pinned))


def count_digraph_maps(source, target, budget=DEFAULT_MAX_MAPS, pinned=None):
    """The number of the maps `iter_digraph_maps` lists with the same
    `pinned`, without listing them; each pinned tuple is read as a set, its
    order ignored.  None once more than `budget` states are live.

    A transfer-matrix sweep (Díaz, Serna and Thilikos, "Counting
    H-colorings of partial k-trees", TCS 2002) over the positions of
    `_map_plan`.  After position k is placed, a state is the images of the
    placed positions that still have an unplaced neighbour, and it carries
    the number of partial maps that reach it; a placed position with no
    later neighbour constrains nothing further, so partial maps that agree
    on the state extend alike.  Each state extends by the candidates the
    lister would draw for the same images, so the cost follows the number
    of states, not the number of maps.
    """
    checks, candidates, last = _map_plan(source, target, pinned)
    everything = range(len(target.vertices))
    states = {(): 1}
    live = []  # the positions whose images make up a state, in order
    for k, earlier in enumerate(checks):
        slot = {j: s for s, j in enumerate(live)}
        reads = [(slot[j], steps) for j, steps in earlier]
        allowed = frozenset(everything if candidates[k] is None else candidates[k])
        kept = [s for s, j in enumerate(live) if last[j] > k]
        grows = last[k] > k
        live = [live[s] for s in kept] + [k] * grows
        head, read = _picker(kept), _picker([s for s, _ in reads])
        options = {}  # the candidates by the images the position reads
        nxt = {}
        get = nxt.get
        for state, ways in states.items():
            seen = read(state)
            got = options.get(seen)
            if got is None:
                got = options[seen] = reduce(
                    and_, [steps[state[s]] for s, steps in reads], allowed
                )
            if grows:
                start = head(state)
                for c in got:
                    key = start + (c,)
                    nxt[key] = get(key, 0) + ways
            else:
                key = head(state)
                nxt[key] = get(key, 0) + ways * len(got)
            if len(nxt) > budget:
                return None
        states = nxt
    return states.get((), 0)


def _picker(slots):
    """A function state -> the tuple of state[s] for s in `slots`."""
    if len(slots) == 1:
        return lambda state, s=slots[0]: (state[s],)
    return itemgetter(*slots) if slots else lambda state: ()


def _image_bitsets(target, maps, n):
    """Per source position x < n, in order: {v: the set of b with
    maps[b][x] == v}, as a bitset over the indices of `maps` (see
    `one_step_pairs`), for every target vertex v that occurs at x.

    A target vertex is coded by its base-128 digits, one ASCII character
    each, since str.translate is fast on ASCII strings only.  The codes at
    x are one string.  Per digit place, each digit that occurs there is
    translated to "1" and every other digit to "0", which reads as the
    bitset of that digit; the set of v is the AND over its digits.  A
    vertex whose digits all occur at x without the vertex itself gets the
    empty set.
    """
    depth = 1
    while 128**depth < len(target.vertices):
        depth += 1
    digits = {
        v: [chr(k // 128**d % 128) for d in range(depth)]
        for k, v in enumerate(target.vertices)
    }
    code = {v: "".join(ds) for v, ds in digits.items()}
    picks = {chr(j): "0" * j + "1" + "0" * (127 - j) for j in range(128)}
    for x in range(n):
        column = "".join([code[images[x]] for images in maps])
        places = [
            {j: int(c.translate(picks[j]), 2) for j in set(c)}
            for c in (column[d::depth] for d in range(depth))
        ]
        equal = {
            v: reduce(and_, map(getitem, places, ds))
            for v, ds in digits.items()
            if all(map(contains, places, ds))
        }
        del column, places  # not held while the caller builds on `equal`
        yield equal


def _step_tables(equal_sets, pinned, *adjacencies):
    """One table T per adjacency, such as `target.successors` for the heads
    and `target.predecessors` for the tails: T[x][u], for every source
    position x and target vertex u occurring there, is the set of b with
    maps[b][x] equal to u or in adjacent(u), or only equal to u when x is
    in `pinned`.  `equal_sets` are the sets of `_image_bitsets`, read one
    position at a time, so that only one position of them is held."""
    tables = [[] for _ in adjacencies]
    for x, equal in enumerate(equal_sets):
        for table, adjacent in zip(tables, adjacencies):
            table.append(equal if x in pinned else {
                u: reduce(or_, [equal.get(w, 0) for w in adjacent(u)], eq)
                for u, eq in equal.items()
            })
    return tables


def _running_and(table, width):
    """A function images -> the AND over the source positions x of
    table[x][images[x]], as a bitset of `width` bits.

    The running AND is kept at every depth and redone only from the first
    position where images differs from the previous argument; for
    arguments in lexicographic order, such as the enumerator's, that is
    mostly the last few positions.
    """
    n = len(table)
    rows = [(1 << width) - 1] * (n + 1)  # rows[x]: the AND over positions < x
    previous = ()

    def running_and(images):
        nonlocal previous
        # the first position where images differs from the previous map
        start = next(compress(count(), map(ne, images, previous)), len(previous))
        for x in range(start, n):
            rows[x + 1] = rows[x] & table[x][images[x]]
        previous = images
        return rows[n]

    return running_and


def one_step_pairs(source, target, maps, rel_positions=()):
    """All index pairs (a, b), a != b, with an arrow maps[a] -> maps[b] in
    the box hom source -> target, relative to the pinned `rel_positions`,
    ordered by a and then by b.

    The pairs come from bitsets over the indices of `maps`: a set is an
    int whose binary numeral, zero-padded to len(maps) digits, has a 1 as
    digit b, counted from 0 at the left, when b is a member.  Let T[x][u]
    be the set of b with maps[b][x] equal to u or to a successor of u
    (only equal to u at a pinned position x; `_step_tables`).  The heads of
    the arrows out of maps[a] are then the AND over the source positions x
    of T[x][maps[a][x]], less a itself (`_running_and`, which reuses the
    AND over the prefix shared with maps[a-1]).  `maps` may come in any
    order and need not be distinct (every copy of a head is listed); the
    order affects only speed.  T holds a set of len(maps) bits per source
    position and target vertex occurring there.
    """
    width = len(maps)
    equal_sets = _image_bitsets(target, maps, len(source.vertices))
    (table,) = _step_tables(equal_sets, set(rel_positions), target.successors)
    heads = _running_and(table, width)
    ids = list(range(width))  # the pairs share these, not one new int per pair
    numeral = f"0{width}b"
    ones = re.compile("1").finditer
    pairs = []
    for a, images in zip(ids, maps):
        bits = format(heads(images) & ~(1 << (width - 1 - a)), numeral)
        pairs.extend([(a, ids[m.start()]) for m in ones(bits)])
    return pairs


def one_step_components(source, target, maps, rel_positions=()):
    """The weak components of the box hom on `maps` (relative to the pinned
    `rel_positions`), as a list: index a -> component number, with the
    components numbered by their least member.  No pair is listed.

    Sets of indices are bitsets as in `one_step_pairs`, and heads(a) is
    the AND over x of T+[x][maps[a][x]] computed there.  Let T-[x][u] be
    the set of b with maps[b][x] equal to u or to a predecessor of u (only
    equal to u at a pinned x).  Then tails(a), the set of b with an arrow
    maps[b] -> maps[a], is the AND over x of T-[x][maps[a][x]]: b -> a
    means that maps[b][x] = maps[a][x] or maps[b][x] -> maps[a][x] for
    every x (equality at a pinned x), that is, maps[b][x] lies in
    {maps[a][x]} | pred(maps[a][x]) (in {maps[a][x]} at a pinned x), which
    is b in T-[x][maps[a][x]]; and b lies in the AND over x exactly when
    this holds at every x.

    The search keeps the bitset `unvisited`.  Each component starts at the
    least unvisited index and grows by (heads | tails) & unvisited of each
    member found, breadth first, and the new members of each level are
    labelled when the level is done, in index order (which keeps the
    prefix reuse of `_running_and`).  The search stops expanding as soon
    as nothing is unvisited.  Each index is expanded at most once, and no
    set is kept per component.
    """
    width = len(maps)
    equal_sets = _image_bitsets(target, maps, len(source.vertices))
    heads_table, tails_table = _step_tables(
        equal_sets, set(rel_positions), target.successors, target.predecessors
    )
    heads = _running_and(heads_table, width)
    tails = _running_and(tails_table, width)
    numeral = f"0{width}b"
    ones = re.compile("1").finditer
    component = [0] * width
    unvisited = (1 << width) - 1
    label = 0
    while unvisited:
        least = width - unvisited.bit_length()
        unvisited ^= 1 << (width - 1 - least)
        component[least] = label
        frontier = [least]
        while frontier and unvisited:
            found = 0
            for a in frontier:
                images = maps[a]
                new = (heads(images) | tails(images)) & unvisited
                unvisited ^= new
                found |= new
                if not unvisited:
                    break
            frontier = [m.start() for m in ones(format(found, numeral))] if found else []
            for b in frontier:
                component[b] = label
        label += 1
    return component


def box_hom(g, h, vertex_budget=DEFAULT_MAX_MAPS):
    """Box hom digraph: vertices are digraph maps g -> h (as image tuples),
    with an arrow f -> f' when every vertex admits an arrow f(x) -> f'(x).
    """
    maps = enumerate_digraph_maps(g, h, budget=vertex_budget)
    return Digraph(maps, [(maps[a], maps[b]) for a, b in one_step_pairs(g, h, maps)])


def pair_box_hom(p, q):
    """Box hom of pairs, returned as a DigraphPair.

    Ambient: pair maps (maps sending p.part into q.part) with an arrow
    f -> f' when arrows exist everywhere and f = f' on p.part.
    Part: the maps whose whole image lies in q.part.
    """
    pinned = {v: q.part for v in p.part}
    maps = enumerate_digraph_maps(p.ambient, q.ambient, pinned=pinned)
    rel_positions = [p.ambient.index(v) for v in p.part]
    pairs = one_step_pairs(p.ambient, q.ambient, maps, rel_positions)
    amb = Digraph(maps, [(maps[a], maps[b]) for a, b in pairs])
    part_set = set(q.part)
    part = [t for t in maps if all(x in part_set for x in t)]
    return DigraphPair(amb, part)


def curry(g, h, k, images):
    """Image tuple for g⊗h -> k  ~~>  image tuple for g -> Hom⊗(h, k)."""
    gh = box_product(g, h)
    lookup = dict(zip(gh.vertices, images))
    return tuple(
        tuple(lookup[(a, b)] for b in h.vertices) for a in g.vertices
    )


def uncurry(g, h, k, images):
    """Inverse of `curry` on raw image tuples."""
    per_a = dict(zip(g.vertices, images))
    hpos = {b: i for i, b in enumerate(h.vertices)}
    return tuple(per_a[a][hpos[b]] for a in g.vertices for b in h.vertices)


# -- connectivity and distance -----------------------------------------


def pi0(g):
    """Weak (orientation-ignoring) connected components.

    Returns a tuple of components; each component is a tuple of vertices in
    input order, and components are ordered by their least vertex.
    """
    seen = set()
    comps = []
    for v in g.vertices:
        if v in seen:
            continue
        comp = []
        queue = deque([v])
        seen.add(v)
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in g.successors(u):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
            for w in g.predecessors(u):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        ix = g._index
        comps.append(tuple(sorted(comp, key=ix.__getitem__)))
    return tuple(comps)


def distance(g, u, v):
    """Length of the shortest directed path u -> v, or INFINITY."""
    g.check_vertices((u, v))
    return distances_from(g, u, INFINITY).get(v, INFINITY)


def distances_from(g, u, depth):
    """Directed BFS distances from u, in distance order, up to `depth`
    (INFINITY for no bound); vertices farther away or unreachable are
    absent."""
    dist = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        d = dist[x] + 1
        if d > depth:
            break
        for y in g.successors(x):
            if y not in dist:
                dist[y] = d
                queue.append(y)
    return dist


def power_digraph(g, k):
    """Same vertices; arrow u -> v iff 1 <= dist(u, v) <= k."""
    if k < 1:
        raise InputError("power index must be >= 1")
    arrows = []
    for u in g.vertices:
        arrows.extend((u, v) for v in distances_from(g, u, k) if v != u)
    return Digraph(g.vertices, arrows)


# -- pushouts ------------------------------------------------------------


def pushout_along_induced_inclusion(g, h_part, phi):
    """Pushout of g <- induced(h_part) -phi-> h', by the direct formula.

    Returns (g', phi': g -> g', incl: h' -> g').  The complement of the
    image of h' in g' is isomorphic to the complement of h_part in g.
    """
    part = set(h_part)
    induced_h = g.induced(part)
    if phi.source != induced_h:
        raise NotInduced(
            "the map's source must be the induced subdigraph on the given part"
        )
    h_prime = phi.target
    outside = [v for v in g.vertices if v not in part]
    clash = set(outside) & set(h_prime.vertices)
    if clash:
        raise InputError(
            f"pushout label collision outside the glued part: {sorted(map(repr, clash))}"
        )
    images = {}
    verts = []
    emitted = set()
    for v in g.vertices:
        w = phi.assignment[v] if v in part else v
        images[v] = w
        if w not in emitted:
            emitted.add(w)
            verts.append(w)
    for w in h_prime.vertices:
        if w not in emitted:
            emitted.add(w)
            verts.append(w)
    arrows = set(h_prime.arrows)
    for u, v in g.arrows:
        a, b = images[u], images[v]
        if a != b:
            arrows.add((a, b))
    result = Digraph(verts, arrows)
    phi_prime = DigraphMap(g, result, images, _trusted=True)
    incl = DigraphMap(
        h_prime, result, {v: v for v in h_prime.vertices}, _trusted=True
    )
    return result, phi_prime, incl
