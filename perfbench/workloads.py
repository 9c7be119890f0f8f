"""Seeded inputs, job lists and exact expected answers for the workloads.

The generator builds every digraph itself, from plain vertex and arrow
lists, so the program under test only ever sees the JSON files written
here.  The seed relabels vertices to strings, shuffles vertex order and
picks the basepoint, the cover rotation and the lifting horns.  Every
expected answer is invariant under those choices, so it is written down
once, next to the job that must produce it.

Two workloads, each made of two job groups:

enumerate  the nerve group (nerve enumeration, structure tables, identity
           checks) and the homotopy group (one-step classes, towers,
           lifting).  Neither reaches linalg.
eliminate  the homology group (Smith forms on the rank path) and the
           compare group (kernels, transforms, small solves).  Both spend
           almost all their time in linalg.
"""

from __future__ import annotations

import json
import os
import random

# -- digraphs as (vertices, arrows) -------------------------------------------


def line(n):
    """The alternating interval on 0..n: p -> p+1 when p is even."""
    arrows = [(p, p + 1) if p % 2 == 0 else (p + 1, p) for p in range(n)]
    return list(range(n + 1)), arrows


def cycle(n):
    return list(range(n)), [(i, (i + 1) % n) for i in range(n)]


def box(g, h):
    """Box product: one coordinate moves along an arrow per step."""
    gv, ga = g
    hv, ha = h
    verts = [(a, b) for a in gv for b in hv]
    arrows = [((a, b), (a2, b)) for (a, a2) in ga for b in hv]
    arrows += [((a, b), (a, b2)) for a in gv for (b, b2) in ha]
    return verts, arrows


def induced(g, keep):
    keep = set(keep)
    verts, arrows = g
    return (
        [v for v in verts if v in keep],
        [(u, v) for (u, v) in arrows if u in keep and v in keep],
    )


def grid_4x4():
    return box(line(4), line(4))


def boundary_4x4():
    verts, _ = grid_4x4()
    return induced(grid_4x4(), [v for v in verts if {0, 4} & set(v)])


def o_digraph():
    """The out-closure of the boundary in the 4x4 zigzag grid: the centre
    (2, 2) is a source and the only vertex outside it."""
    verts, _ = grid_4x4()
    return induced(grid_4x4(), [v for v in verts if v != (2, 2)])


def out_fan():
    return ["a", "b", "c"], [("b", "a"), ("b", "c")]


# -- seeded relabelling and file output -----------------------------------------


class InputWriter:
    """Writes digraphs and maps under `directory` with seeded string labels
    and a seeded vertex order."""

    def __init__(self, directory, rng):
        self.directory = directory
        self.rng = rng
        self.labels = {}

    def path(self, name):
        return os.path.join(self.directory, name + ".json")

    def digraph(self, name, g):
        """Write `g` once per name; a second call returns the same file."""
        if name in self.labels:
            return self.path(name)
        verts, arrows = g
        codes = self.rng.sample(range(10 * len(verts) + 10), len(verts))
        label = {v: f"{name}.{c}" for v, c in zip(verts, codes)}
        order = list(verts)
        self.rng.shuffle(order)
        arrows = [[label[u], label[v]] for (u, v) in arrows]
        self.rng.shuffle(arrows)
        self._dump(name, {"vertices": [label[v] for v in order], "arrows": arrows})
        self.labels[name] = label
        return self.path(name)

    def digraph_map(self, name, source, target, assignment):
        """`assignment` maps original source vertices to original target
        vertices; both digraphs must have been written already."""
        src, dst = self.labels[source], self.labels[target]
        items = list(assignment.items())
        self.rng.shuffle(items)
        self._dump(name, {
            "source": source + ".json",
            "target": target + ".json",
            "assignment": {src[v]: dst[w] for v, w in items},
        })
        return self.path(name)

    def _dump(self, name, data):
        with open(self.path(name), "w", encoding="utf-8") as fh:
            json.dump(data, fh)


# -- jobs -----------------------------------------------------------------------
#
# A job is {"id", "group", "argv", "check", "expect"}: `group` names its job
# group, `argv` goes to dgh.cli.main, `check` names the answer check below
# and `expect` is its exact data.


def _job(job_id, argv, check, **expect):
    return {"id": job_id, "argv": argv, "check": check, "expect": expect}


def _group(rank, torsion=()):
    return {"rank": rank, "torsion": list(torsion)}


Z, ZERO = _group(1), _group(0)


def tower_counts(cycle_length, stages):
    """Pointed classes of maps I_s -> C_n rel endpoints: the windings that
    fit, (s - s//2)//n forward and (s//2)//n backward, plus winding 0."""
    n = cycle_length
    return [(s - s // 2) // n + (s // 2) // n + 1 for s in range(1, stages + 1)]


def nerve_jobs(w, rng):
    c3 = w.digraph("c3", cycle(3))
    fan = w.digraph("fan", out_fan())
    return [
        _job("nerve-c3-m2-k3", ["nerve", c3, "--m", "2", "--maxdim", "3"], "nerve",
             cubes=[3, 12, 246, 426342], nondegenerate=[3, 9, 207, 424755]),
        _job("nerve-fan-m2-k3", ["nerve", fan, "--m", "2", "--maxdim", "3"], "nerve",
             cubes=[3, 9, 95, 31871], nondegenerate=[3, 6, 68, 31302]),
    ]


def homology_jobs(w, rng):
    bd = w.digraph("boundary44", boundary_4x4())
    grid = w.digraph("grid44", grid_4x4())
    c3 = w.digraph("c3", cycle(3))
    sq = w.digraph("square", box(line(1), line(1)))
    o = w.digraph("o", o_digraph())
    tri = ["--triangulated"]
    return [
        _job("homology-boundary44-m2-k2",
             ["homology", bd, "--nerve-m", "2", "--maxdim", "2"], "homology",
             H=[Z, Z, _group(1248)]),
        _job("homology-grid44-m1-k3",
             ["homology", grid, "--nerve-m", "1", "--maxdim", "3"], "homology",
             H=[Z, ZERO, ZERO, _group(680)]),
        _job("homology-c3-m1-k3-tri",
             ["homology", c3, "--nerve-m", "1", "--maxdim", "3"] + tri, "homology",
             H=[Z, Z, ZERO, _group(42)], triangulated_H=[Z, Z, ZERO, _group(42)]),
        _job("homology-square-m1-k3-tri",
             ["homology", sq, "--nerve-m", "1", "--maxdim", "3"] + tri, "homology",
             H=[Z, ZERO, ZERO, _group(47)], triangulated_H=[Z, ZERO, ZERO, _group(47)]),
        _job("homology-o-m1-k2-tri",
             ["homology", o, "--nerve-m", "1", "--maxdim", "2"] + tri, "homology",
             H=[Z, Z, _group(36)], triangulated_H=[Z, Z, _group(36)]),
    ]


def compare_jobs(w, rng):
    w.digraph("c3", cycle(3))
    jobs = []
    for k in (2, 3, 4):
        name = f"c{3 * k}"
        w.digraph(name, cycle(3 * k))
        shift = rng.randrange(3)
        phi = w.digraph_map(f"cover{k}", name, "c3",
                            {i: (i + shift) % 3 for i in range(3 * k)})
        jobs.append(_job(f"compare-c{3 * k}-c3-m2", ["compare", phi, "--nerve-m", "2"],
                         "compare", degree={"0": ([1], True), "1": ([k], False)},
                         groups={"0": (Z, Z), "1": (Z, Z)}, iso_below_top=False))
    sq = box(line(1), line(1))
    w.digraph("square", sq)
    ident = w.digraph_map("square-id", "square", "square", {v: v for v in sq[0]})
    jobs.append(_job("compare-square-id-m2", ["compare", ident, "--nerve-m", "2"],
                     "compare", degree={"0": ([1], True), "1": ([], True)},
                     groups={"0": (Z, Z), "1": (ZERO, ZERO)}, iso_below_top=True))
    bd = boundary_4x4()
    w.digraph("boundary44", bd)
    w.digraph("o", o_digraph())
    incl = w.digraph_map("boundary-in-o", "boundary44", "o", {v: v for v in bd[0]})
    jobs.append(_job("compare-boundary44-o-m1", ["compare", incl, "--nerve-m", "1"],
                     "compare", degree={"0": ([1], True), "1": ([1], True)},
                     groups={"0": (Z, Z), "1": (Z, Z)}, iso_below_top=True))
    return jobs


def homotopy_jobs(w, rng):
    jobs = []
    for n in (3, 4):
        name = f"c{n}"
        path = w.digraph(name, cycle(n))
        base = w.labels[name][rng.randrange(n)]
        jobs.append(_job(f"antower-c{n}-r12",
                         ["antower", path, "--base", base, "--tower", "r",
                          "--stages", "12"],
                         "antower", class_counts=tower_counts(n, 12)))
    i8 = w.digraph("i8", line(8))
    jobs.append(_job("classes-i8-c3", ["classes", i8, w.path("c3")], "classes",
                     maps=768, classes=1))
    w.digraph("c6", cycle(6))
    shift = rng.randrange(3)
    p = w.digraph_map("c6-c3", "c6", "c3", {i: (i + shift) % 3 for i in range(6)})
    horns = [(i, eps) for i in (1, 2) for eps in (0, 1)]
    for i, eps in rng.sample(horns, 2):
        jobs.append(_job(f"lifting-c6-c3-side3-h{i}{eps}",
                         ["check", "lifting", p, "--horn", f"2,{i},{eps},3"],
                         "lifting", squares=15624))
    return jobs


_GROUPS = {
    "enumerate": {"nerve": nerve_jobs, "homotopy": homotopy_jobs},
    "eliminate": {"homology": homology_jobs, "compare": compare_jobs},
}
WORKLOADS = tuple(_GROUPS)
#: every job group, in the order of the workloads
GROUPS = tuple(group for groups in _GROUPS.values() for group in groups)


def write_inputs(workload, seed, directory):
    """Write the seeded input files for `workload` into `directory` and
    return its job list."""
    os.makedirs(directory, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    writer = InputWriter(directory, rng)
    jobs = []
    for group, make_jobs in _GROUPS[workload].items():
        for job in make_jobs(writer, rng):
            job["group"] = group
            jobs.append(job)
    return jobs


# -- answer checks ----------------------------------------------------------------
#
# Each check gets the parsed JSON report and the job's `expect` and returns
# a list of problems.  Only basis-invariant facts are compared: group shapes,
# counts, verdicts, and induced matrices up to sign (the sign of a 1x1
# induced matrix follows the seeded vertex order).


def _check_nerve(report, expect):
    return [
        f"{key} {report.get(key)} != {want}"
        for key, want in (
            ("cubes", expect["cubes"]),
            ("nondegenerate", expect["nondegenerate"]),
            ("identity_violations", []),
            ("pass", True),
        )
        if report.get(key) != want
    ]


def _check_homology(report, expect):
    problems = []
    for key in ("H", "triangulated_H"):
        if key in expect and report.get(key) != expect[key]:
            problems.append(f"{key} {report.get(key)} != {expect[key]}")
    if "triangulated_H" in expect and report.get("oracles_agree_below_top") is not True:
        problems.append("the cubical and triangulated oracles disagree")
    return problems


def _check_compare(report, expect):
    problems = []
    for degree, (entries, iso) in expect["degree"].items():
        got = report.get("degrees", {}).get(degree, {})
        matrix = got.get("matrix")
        flat = [abs(x) for row in matrix for x in row] if matrix is not None else None
        if flat != entries:
            problems.append(f"H{degree} matrix {matrix} is not +-{entries}")
        if got.get("iso") is not iso:
            problems.append(f"H{degree} iso {got.get('iso')} != {iso}")
        source, target = expect["groups"][degree]
        if (got.get("source"), got.get("target")) != (source, target):
            problems.append(f"H{degree} groups {got.get('source')} -> {got.get('target')}")
    if report.get("iso_below_top") is not expect["iso_below_top"]:
        problems.append(f"iso_below_top {report.get('iso_below_top')}")
    return problems


def _check_antower(report, expect):
    got = report.get("class_counts")
    return [] if got == expect["class_counts"] else [
        f"class_counts {got} != {expect['class_counts']}"]


def _check_classes(report, expect):
    problems = [
        f"{key} {report.get(key)} != {expect[key]}"
        for key in ("maps", "classes")
        if report.get(key) != expect[key]
    ]
    if len(report.get("representatives", ())) != expect["classes"]:
        problems.append("one representative per class expected")
    return problems


def _check_lifting(report, expect):
    return [
        f"{key} {report.get(key)} != {want}"
        for key, want in (("pass", True), ("unique", True), ("squares", expect["squares"]))
        if report.get(key) != want
    ]


_CHECKS = {
    "nerve": _check_nerve,
    "homology": _check_homology,
    "compare": _check_compare,
    "antower": _check_antower,
    "classes": _check_classes,
    "lifting": _check_lifting,
}


def check(job, code, stdout):
    """Problems with one job's exit code and report; empty when correct."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return ["stdout is not one JSON report"]
    return _CHECKS[job["check"]](report, job["expect"])
