"""Intervals (zigzag line digraphs), shrinkings, truncations, and towers.

An interval is encoded by its orientation word: a tuple over {FWD, BWD}
of length k describing the digraph on {0..k} with arrow i -> i+1 at a FWD
position and i+1 -> i at a BWD position.  The CLI string form uses '>'
for FWD and '<' for BWD (e.g. "><><" is the standard 4-interval).
"""

from __future__ import annotations

from itertools import combinations

from .digraph import Digraph, DigraphMap, DigraphPair, pushout_along_induced_inclusion
from .errors import BadIndex, InputError

FWD, BWD = 1, -1


class Interval:
    __slots__ = ("word",)

    def __init__(self, word):
        word = tuple(word)
        if any(d not in (FWD, BWD) for d in word):
            raise InputError("orientation word must consist of FWD/BWD symbols")
        self.word = word

    @classmethod
    def from_string(cls, text):
        table = {">": FWD, "<": BWD}
        try:
            return cls(table[c] for c in text.strip())
        except KeyError:
            raise InputError(f"bad interval literal {text!r}: use '>' and '<'") from None

    def to_string(self):
        return "".join(">" if d == FWD else "<" for d in self.word)

    @property
    def n_arrows(self):
        return len(self.word)

    @property
    def n_vertices(self):
        return len(self.word) + 1

    @property
    def last(self):
        return len(self.word)

    def to_digraph(self):
        arrows = []
        for p, d in enumerate(self.word):
            arrows.append((p, p + 1) if d == FWD else ((p + 1), p))
        return Digraph(range(self.n_vertices), arrows)

    def opposite(self):
        return Interval(-d for d in self.word)

    def wedge(self, other):
        return Interval(self.word + other.word)

    def __eq__(self, other):
        return isinstance(other, Interval) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return f"Interval({self.to_string()!r})"


def standard_interval(n, sign=1):
    """The alternating interval: position p is forward iff p is even
    (reversed when sign is -1)."""
    if n < 0:
        raise BadIndex("interval length must be >= 0")
    if sign not in (1, -1):
        raise BadIndex("sign must be +1 or -1")
    word = [FWD if p % 2 == 0 else BWD for p in range(n)]
    if sign == -1:
        word = [-d for d in word]
    return Interval(word)


def all_intervals(max_arrows):
    """Every orientation word with at most `max_arrows` arrows, short first."""
    out = [Interval(())]
    frontier = [()]
    for _ in range(max_arrows):
        frontier = [w + (d,) for w in frontier for d in (FWD, BWD)]
        out.extend(Interval(w) for w in frontier)
    return out


# -- truncations ---------------------------------------------------------


def truncation(kind, n, sign=1):
    """The shrinking collapsing extreme arrows of a standard interval.

    kind 'r': I_{n+1}^s  -> I_n^s   (r(n+1) = n, identity below)
    kind 'l': I_{n+1}^-s -> I_n^s   (l(0) = 0, l(k) = k-1)
    kind 'c': I_{n+2}^-s -> I_n^s   (l after r)
    kind 'c2': I_{n+4}^s -> I_n^s   (c after c)
    """
    if n < 1:
        raise BadIndex("truncations need a target with at least one arrow")
    if kind == "r":
        src, dst = standard_interval(n + 1, sign), standard_interval(n, sign)
        assignment = {k: min(k, n) for k in range(n + 2)}
    elif kind == "l":
        src, dst = standard_interval(n + 1, -sign), standard_interval(n, sign)
        assignment = {k: max(k - 1, 0) for k in range(n + 2)}
    elif kind == "c":
        return truncation("l", n, sign).compose(truncation("r", n + 1, -sign))
    elif kind == "c2":
        return truncation("c", n, sign).compose(truncation("c", n + 2, -sign))
    else:
        raise BadIndex(f"unknown truncation kind {kind!r}")
    out = DigraphMap(src.to_digraph(), dst.to_digraph(), assignment)
    assert is_shrinking(out)
    return out


# -- shrinkings ----------------------------------------------------------


def is_shrinking(m):
    """Monotone and surjective on vertices (sources/targets are intervals
    realized as digraphs on 0..k)."""
    n = len(m.source.vertices) - 1
    k = len(m.target.vertices) - 1
    imgs = [m.assignment[i] for i in range(n + 1)]
    if any(imgs[i] > imgs[i + 1] for i in range(n)):
        return False
    return set(imgs) == set(range(k + 1))


def enumerate_shrinkings(j, j_prime):
    """All shrinkings j -> j_prime, in lexicographic order of image tuples.

    Monotone surjections {0..n} -> {0..m} are walked as cut positions; each
    candidate is kept when consecutive images either agree or step along a
    matching orientation.
    """
    n, m = j.n_arrows, j_prime.n_arrows
    src, dst = j.to_digraph(), j_prime.to_digraph()
    out = []
    for cuts in combinations(range(1, n + 1), m):
        images = []
        value = 0
        boundaries = set(cuts)
        for x in range(n + 1):
            if x in boundaries:
                value += 1
            images.append(value)
        good = True
        for p in range(n):
            if images[p] == images[p + 1]:
                continue
            if j.word[p] != j_prime.word[images[p]]:
                good = False
                break
        if good:
            out.append(DigraphMap(src, dst, dict(enumerate(images)), _trusted=True))
    out.sort(key=lambda f: f.image_tuple())
    return out


# -- Cantor intervals ------------------------------------------------------


def cantor_interval(n):
    """Interval on 2^n - 1 arrows; the arrow between x and x+1 points
    forward iff the length of their common binary prefix is even."""
    if n < 1:
        raise BadIndex("Cantor intervals are indexed from 1")
    word = []
    for x in range(2**n - 1):
        trailing = 0
        y = x
        while y & 1:
            trailing += 1
            y >>= 1
        k = n - 1 - trailing
        word.append(FWD if k % 2 == 0 else BWD)
    return Interval(word)


def cantor_projection(m, n):
    """Drop the trailing m-n bits; a shrinking between Cantor intervals."""
    if not 1 <= n <= m:
        raise BadIndex("need 1 <= n <= m")
    src = cantor_interval(m).to_digraph()
    dst = cantor_interval(n).to_digraph()
    shift = m - n
    return DigraphMap(src, dst, {x: x >> shift for x in range(2**m)})


# -- towers ----------------------------------------------------------------

TOWER_KINDS = ("st", "r", "l", "odd", "cantor")


class TowerSpec:
    """Stage-indexed intervals with shrinking transitions (stage s+1 -> s).

    Only the named kinds are constructible; every transition produced is
    validated to be a shrinking between the declared stage intervals, and a
    mismatch raises instead of being silently reconciled.
    """

    def __init__(self, kind):
        if kind not in TOWER_KINDS:
            raise BadIndex(f"unknown tower kind {kind!r}; use one of {TOWER_KINDS}")
        self.kind = kind

    def interval(self, stage):
        if stage < 1:
            raise BadIndex("stages are indexed from 1")
        if self.kind == "st":
            sign = 1 if ((stage - 1) // 2) % 2 == 0 else -1
            return standard_interval(stage, sign)
        if self.kind == "r":
            return standard_interval(stage, 1)
        if self.kind == "l":
            return standard_interval(stage, 1 if stage % 2 == 1 else -1)
        if self.kind == "odd":
            return standard_interval(3 ** (stage - 1), 1)
        return cantor_interval(stage)

    def transition(self, stage):
        """The shrinking interval(stage+1) -> interval(stage)."""
        if self.kind == "st":
            sign = 1 if ((stage - 1) // 2) % 2 == 0 else -1
            kind = "r" if stage % 2 == 1 else "l"
            m = truncation(kind, stage, sign)
        elif self.kind == "r":
            m = truncation("r", stage, 1)
        elif self.kind == "l":
            m = truncation("l", stage, 1 if stage % 2 == 1 else -1)
        elif self.kind == "odd":
            src = self.interval(stage + 1).to_digraph()
            dst = self.interval(stage).to_digraph()
            m = DigraphMap(src, dst, {x: x // 3 for x in range(3**stage + 1)})
        else:
            m = cantor_projection(stage + 1, stage)
        expected_src = self.interval(stage + 1).to_digraph()
        expected_dst = self.interval(stage).to_digraph()
        if m.source != expected_src or m.target != expected_dst:
            raise BadIndex(
                f"tower {self.kind!r} stage {stage}: transition signature mismatch"
            )
        if not is_shrinking(m):
            raise BadIndex(f"tower {self.kind!r} stage {stage}: not a shrinking")
        return m


# -- spheres ----------------------------------------------------------------

BASEPOINT = "*"


def sphere_digraph(j, n):
    """Pointed digraph collapsing the boundary of the n-fold box power of j.

    For n = 0 this is two points by convention (basepoint plus one vertex),
    matching the use of pointed classes for dimension zero.
    """
    from .nerve import boundary_vertices, cube_realization  # no cycle at call time

    if n < 0:
        raise BadIndex("sphere dimension must be >= 0")
    if n == 0:
        amb = Digraph((BASEPOINT, "pt"))
        return DigraphPair(amb, (BASEPOINT,))
    cube = cube_realization(j, n)
    boundary = boundary_vertices(j.n_arrows, n)
    target = Digraph((BASEPOINT,))
    collapse = DigraphMap.constant(cube.induced(boundary), target, BASEPOINT)
    quotient, _, _ = pushout_along_induced_inclusion(cube, boundary, collapse)
    return DigraphPair(quotient, (BASEPOINT,))
