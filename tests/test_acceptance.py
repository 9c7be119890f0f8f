"""Acceptance gate: one test per criterion, each printing a pass/fail line
with its runtime.  Counted quantities are exact integers; tolerances are
equality.  Runtime ceilings are asserted as stated.
"""

import time

from dgh.digraph import DigraphMap
from dgh.homology import homology_summary, induced_homology_map, pi1_presentation
from dgh.homotopy import an_tower
from dgh.covers import (
    SubdigraphFamily,
    check_cover_equivalence,
    nerve_complex,
    nerve_theorem_pipeline,
)
from dgh.coverings import (
    check_unique_lifting,
    check_unique_lifting_all_horns,
    is_l_covering,
)
from dgh.homology import HomologyGroup
from dgh.nerve import (
    check_rho_properties,
    horn_inclusion,
    kan_filler_report,
    nerve_functor_map,
    nerve_levels,
)
from dgh.suites import run_suite, suite_shrinkings, suite_union
from dgh.triangulation import triangulate

from conftest import cycle


Z = HomologyGroup(1, ())


class Stopwatch:
    def __init__(self, name, limit):
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.name}: {verdict} ({elapsed:.1f}s / limit {self.limit}s)")
        assert elapsed < self.limit, f"{self.name} exceeded {self.limit}s"


def o_cover(o):
    return SubdigraphFamily(
        o,
        {
            "rows01": [v for v in o.vertices if v[0] in (0, 1)],
            "rows34": [v for v in o.vertices if v[0] in (3, 4)],
            "cols01": [v for v in o.vertices if v[1] in (0, 1)],
            "cols34": [v for v in o.vertices if v[1] in (3, 4)],
        },
    )


def test_criterion_1_cycle_invariants():
    with Stopwatch("1 (cycle invariants)", 10):
        for n in (3, 4, 5, 6):
            x = nerve_levels(cycle(n), 1, 1, 2)
            groups = homology_summary(x)["groups"]
            assert groups[0] == Z and groups[1] == Z
            assert pi1_presentation(x, 0).abelianization() == Z


def test_criterion_2_o_example(o_digraph):
    with Stopwatch("2 (the out-closure example)", 60):
        groups = homology_summary(nerve_levels(o_digraph, 1, 1, 2))["groups"]
        assert groups[0] == Z and groups[1] == Z
        fam = o_cover(o_digraph)
        ner = nerve_complex(fam)
        assert sorted(len(f) for f in ner.faces) == [1, 1, 1, 1, 2, 2, 2, 2]
        assert ner.homology()["groups"][0] == Z
        assert ner.homology()["groups"][1] == Z
        rep = nerve_theorem_pipeline(o_digraph, fam, 2)
        assert rep["consistent"]


def test_criterion_3_boundary_inclusion(o_digraph, boundary44):
    with Stopwatch("3 (boundary inclusion)", 60):
        incl = DigraphMap(
            boundary44, o_digraph, {v: v for v in boundary44.vertices}
        )
        cm = nerve_functor_map(incl, 1, 2)
        for deg in (0, 1):
            assert induced_homology_map(cm, deg)["iso"]
        restricted = SubdigraphFamily(
            boundary44,
            {
                name: [v for v in vs if v in set(boundary44.vertices)]
                for name, vs in o_cover(o_digraph).members.items()
            },
        )
        rep = check_cover_equivalence(incl, restricted, o_cover(o_digraph), 2)
        assert rep["pass"]


def test_criterion_4_shrinking_homotopy():
    with Stopwatch("4 (shrinking homotopy)", 30):
        rep = suite_shrinkings()
        assert rep["pass"]


def test_criterion_5_kan_filler():
    with Stopwatch("5 (horn filler)", 10):
        for n in (1, 2):
            for i in range(1, n + 1):
                for eps in (0, 1):
                    rep = kan_filler_report(1, n, i, eps)
                    assert rep["is_digraph_map"]
                    assert rep["lands_in_horn"]
                    assert rep["restricts_to_central_clamp"]


def test_criterion_6_rho_identities():
    with Stopwatch("6 (cylinder fold identities)", 30):
        for n in (1, 2, 3):
            for m in (2, 4):
                rep = check_rho_properties(n, m)
                assert rep["pass"], (n, m, rep)


def test_criterion_7_union_pushout():
    with Stopwatch("7 (union pushout)", 60):
        rep = suite_union()
        assert rep["pass"]
        count_check = next(
            c for c in rep["checks"] if c["name"].startswith("levelwise")
        )
        splitting_count = int(count_check["name"].split("(")[1].split()[0])
        assert splitting_count >= 20


def test_criterion_8_two_covering(c3, c6):
    with Stopwatch("8 (distance covering)", 120):
        p = DigraphMap(c6, c3, {i: i % 3 for i in range(6)})
        rep2 = is_l_covering(p, 2)
        assert rep2["pass"] and all(rep2["conditions"].values())
        rep3 = is_l_covering(p, 3)
        assert not rep3["is_l_covering"] and rep3["conditions_agree"]
        for side in (2, 4):
            for eps in (0, 1):
                horn, cube = horn_inclusion(side, 1, 1, eps)
                assert check_unique_lifting(p, horn, cube)["pass"]
            assert check_unique_lifting_all_horns(p, side, 2)["pass"]


def test_criterion_9_tower_stabilization(c3):
    with Stopwatch("9 (tower stabilization)", 120):
        tower = an_tower(c3, 0, 1, "r", 8)
        winding_oracle = [
            (s - s // 2) // 3 + (s // 2) // 3 + 1 for s in range(1, 9)
        ]
        assert tower.class_counts() == winding_oracle
        first_both = winding_oracle.index(3) + 1
        for s in range(first_both, 8):
            tr = tower.transitions[s - 1]
            assert len(set(tr)) == len(tr), f"transition {s} not injective"


def test_criterion_10_oracle_agreement(o_digraph, boundary44):
    with Stopwatch("10 (oracle agreement)", 120):
        nerves = [nerve_levels(cycle(n), 1, 1, 2) for n in (3, 4, 5, 6)]
        nerves.append(nerve_levels(o_digraph, 1, 1, 2))
        nerves.append(nerve_levels(boundary44, 1, 1, 2))
        for x in nerves:
            assert x.identity_violations() == []
            cub = homology_summary(x)["groups"]
            tri = triangulate(x).homology()["groups"]
            for deg in range(2):
                assert cub[deg] == tri[deg]


def test_criterion_11_property_suites():
    with Stopwatch("11 (property suites)", 300):
        report = run_suite("all")
        assert report["pass"], [
            r["suite"] for r in report["reports"] if not r["pass"]
        ]
