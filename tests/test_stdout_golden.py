"""Exact stdout of a few CLI calls, pinned byte for byte.

The reports on stdout are a contract: a change to elimination, homology
coordinates, structure tables or rendering must leave them as they are.
The homology and compare strings below were captured before unit-pivot
elimination replaced the dense Smith form on the rank path, and were the
same under several PYTHONHASHSEED values; the `--tables` strings were
captured before the tables were built as composed index maps, and the
compare strings of the projective plane's identity, its vertex and the
empty digraph before homology coordinates were kept as sparse columns.
"""

import hashlib
import json

import pytest

from dgh.cli import main
from dgh.corpus import o_digraph
from dgh.homology import HomologyCoordinates, normalized_chain_complex
from dgh.nerve import nerve_levels

from conftest import cycle

ZIGZAG = "><><"  # anti-palindromic, so the antipodal gluing keeps arrow directions


def projective_plane():
    """The box square of the zigzag 0->1<-2->3<-4 with antipodal boundary
    points identified: a digraph model of the projective plane."""
    n = len(ZIGZAG)
    steps = [(k, k + 1) if c == ">" else (k + 1, k) for k, c in enumerate(ZIGZAG)]

    def vertex(x, y):
        if x in (0, n) or y in (0, n):
            x, y = min((x, y), (n - x, n - y))
        return f"{x}{y}"

    arrows = {(vertex(a, y), vertex(b, y)) for a, b in steps for y in range(n + 1)}
    arrows |= {(vertex(x, a), vertex(x, b)) for a, b in steps for x in range(n + 1)}
    vertices = sorted({vertex(x, y) for x in range(n + 1) for y in range(n + 1)})
    return {"vertices": vertices, "arrows": sorted(map(list, arrows))}


@pytest.fixture()
def files(tmp_path):
    c3 = {"vertices": ["0", "1", "2"], "arrows": [["0", "1"], ["1", "2"], ["2", "0"]]}
    wedge = {
        "vertices": ["0", "1", "2", "3", "4"],
        "arrows": [["0", "1"], ["1", "2"], ["2", "0"], ["0", "3"], ["3", "4"], ["4", "0"]],
    }
    fold = {
        "source": "wedge.json",
        "target": "c3.json",
        "assignment": {"0": "0", "1": "1", "2": "2", "3": "1", "4": "2"},
    }
    fan = {"vertices": ["a", "b", "c"], "arrows": [["b", "a"], ["b", "c"]]}
    for name, data in (
        ("c3.json", c3),
        ("fan.json", fan),
        ("wedge.json", wedge),
        ("fold.json", fold),
        ("rp2.json", projective_plane()),
        *o_files(),
        *non_covering_files(),
        *square_cover_files(),
        *compare_files(),
        *one_side_empty_files(),
        *long_cycle_files(),
    ):
        (tmp_path / name).write_text(json.dumps(data))
    return tmp_path


def o_files():
    """The punctured grid O with vertices labelled "rc", its identity map,
    the cover by rows r <= 2 and r >= 2, and that cover plus the columns
    c <= 2 and c >= 2 (the members meet in threes, so the cover's nerve
    has 2-simplices)."""
    o = o_digraph()
    label = {(r, c): f"{r}{c}" for r, c in o.vertices}
    rows = {
        "top": [label[v] for v in o.vertices if v[0] <= 2],
        "bottom": [label[v] for v in o.vertices if v[0] >= 2],
    }
    columns = {
        "left": [label[v] for v in o.vertices if v[1] <= 2],
        "right": [label[v] for v in o.vertices if v[1] >= 2],
    }
    return [
        ("o.json", {
            "vertices": [label[v] for v in o.vertices],
            "arrows": [[label[u], label[v]] for u, v in sorted(o.arrows)],
        }),
        ("o-id.json", {
            "source": "o.json", "target": "o.json", "assignment": {x: x for x in label.values()},
        }),
        ("o-rows.json", {"members": rows}),
        ("o-rows-columns.json", {"members": {**rows, **columns}}),
    ]


def non_covering_files():
    """Two maps into C3 that are not 1-coverings: the interval 0->1<-2->3
    sent to 0, 1, 1, 2, and the constant map from C6."""
    c6 = {"vertices": [str(i) for i in range(6)],
          "arrows": [[str(i), str((i + 1) % 6)] for i in range(6)]}
    i3 = {"vertices": ["0", "1", "2", "3"], "arrows": [["0", "1"], ["2", "1"], ["2", "3"]]}
    return [
        ("c6.json", c6),
        ("i3.json", i3),
        ("i3-c3.json", {
            "source": "i3.json", "target": "c3.json",
            "assignment": {"0": "0", "1": "1", "2": "1", "3": "2"},
        }),
        ("c6-point.json", {
            "source": "c6.json", "target": "c3.json",
            "assignment": {str(i): "0" for i in range(6)},
        }),
    ]


def square_cover_files():
    """The square 0 -> 1 -> 3, 0 -> 2 -> 3 and its connected double cover,
    whose sheets a and b cross over the arrow 2 -> 3: a 1-covering through
    which the square does not lift."""
    cover = [f"{v}{s}" for s in "ab" for v in range(4)]
    arrows = [[f"{u}{s}", f"{v}{s}"] for u, v in ((0, 1), (1, 3), (0, 2)) for s in "ab"]
    return [
        ("square.json", {"vertices": ["0", "1", "2", "3"],
                         "arrows": [["0", "1"], ["1", "3"], ["0", "2"], ["2", "3"]]}),
        ("square2.json", {"vertices": cover,
                          "arrows": arrows + [["2a", "3b"], ["2b", "3a"]]}),
        ("square-cover.json", {"source": "square2.json", "target": "square.json",
                               "assignment": {v: v[0] for v in cover}}),
    ]


def compare_files():
    """Maps for `compare` off the pinned paths: the identity of the
    projective plane, its vertex "00" alone into it, and the empty digraph
    into C3."""
    rp2 = projective_plane()
    return [
        ("rp2-id.json", {
            "source": "rp2.json", "target": "rp2.json",
            "assignment": {v: v for v in rp2["vertices"]},
        }),
        ("vertex.json", {"vertices": ["00"], "arrows": []}),
        ("vertex-rp2.json", {
            "source": "vertex.json", "target": "rp2.json", "assignment": {"00": "00"},
        }),
        ("empty.json", {"vertices": [], "arrows": []}),
        ("empty-c3.json", {"source": "empty.json", "target": "c3.json", "assignment": {}}),
    ]


LONG = 300


def long_cycle_files():
    """The directed 300-cycle and its identity map: in degree 0 the
    relation matrix of its homology coordinates is 300 x 300."""
    labels = [str(k) for k in range(LONG)]
    return [
        ("c300.json", {
            "vertices": labels,
            "arrows": [[labels[k], labels[(k + 1) % LONG]] for k in range(LONG)],
        }),
        ("c300-id.json", {
            "source": "c300.json", "target": "c300.json",
            "assignment": {v: v for v in labels},
        }),
    ]


def one_side_empty_files():
    """Two isolated vertices a and b, covered by x = [a] and y = [b], sent
    to one point c, covered by x = [c] and y = [c]: the face {x, y} is in
    the target cover's nerve only."""
    return [
        ("ab.json", {"vertices": ["a", "b"], "arrows": []}),
        ("point.json", {"vertices": ["c"], "arrows": []}),
        ("ab-point.json", {
            "source": "ab.json", "target": "point.json", "assignment": {"a": "c", "b": "c"},
        }),
        ("ab-cover.json", {"members": {"x": ["a"], "y": ["b"]}}),
        ("point-cover.json", {"members": {"x": ["c"], "y": ["c"]}}),
    ]


GOLDEN = [
    (
        ["homology", "c3.json", "--nerve-m", "1", "--maxdim", "3", "--triangulated"],
        '{"H":[{"rank":1,"torsion":[]},{"rank":1,"torsion":[]},{"rank":0,"torsion":[]},'
        '{"rank":42,"torsion":[]}],"oracles_agree_below_top":true,"pass":true,'
        '"triangulated_H":[{"rank":1,"torsion":[]},{"rank":1,"torsion":[]},'
        '{"rank":0,"torsion":[]},{"rank":42,"torsion":[]}],"truncated_top":true}\n',
    ),
    (
        # the fold of two directed 3-cycles onto one: H1 = Z^2 -> Z is [1 1]
        ["compare", "fold.json", "--nerve-m", "1"],
        '{"degrees":{"0":{"iso":true,"matrix":[[1]],"source":{"rank":1,"torsion":[]},'
        '"target":{"rank":1,"torsion":[]}},"1":{"iso":false,"matrix":[[1,1]],'
        '"source":{"rank":2,"torsion":[]},"target":{"rank":1,"torsion":[]}}},'
        '"iso_below_top":false,"pass":true}\n',
    ),
    (
        # H1 = Z/2, found by both oracles
        ["homology", "rp2.json", "--nerve-m", "1", "--maxdim", "2", "--triangulated"],
        '{"H":[{"rank":1,"torsion":[]},{"rank":0,"torsion":[2]},{"rank":48,"torsion":[]}],'
        '"oracles_agree_below_top":true,"pass":true,"triangulated_H":[{"rank":1,"torsion":[]},'
        '{"rank":0,"torsion":[2]},{"rank":48,"torsion":[]}],"truncated_top":true}\n',
    ),
    (
        # H1 = Z/2 -> Z/2: torsion coordinates and the torsion relation
        # column of the surjectivity test
        ["compare", "rp2-id.json", "--nerve-m", "1", "--maxdim", "2"],
        '{"degrees":{"0":{"iso":true,"matrix":[[1]],"source":{"rank":1,"torsion":[]},'
        '"target":{"rank":1,"torsion":[]}},"1":{"iso":true,"matrix":[[1]],'
        '"source":{"rank":0,"torsion":[2]},"target":{"rank":0,"torsion":[2]}}},'
        '"iso_below_top":true,"pass":true}\n',
    ),
    (
        # H1 = 0 -> Z/2: no source generator, one target row
        ["compare", "vertex-rp2.json", "--nerve-m", "1", "--maxdim", "2"],
        '{"degrees":{"0":{"iso":true,"matrix":[[1]],"source":{"rank":1,"torsion":[]},'
        '"target":{"rank":1,"torsion":[]}},"1":{"iso":false,"matrix":[[]],'
        '"source":{"rank":0,"torsion":[]},"target":{"rank":0,"torsion":[2]}}},'
        '"iso_below_top":false,"pass":true}\n',
    ),
    (
        # the empty source has an empty kernel in every degree
        ["compare", "empty-c3.json", "--nerve-m", "1", "--maxdim", "2"],
        '{"degrees":{"0":{"iso":false,"matrix":[[]],"source":{"rank":0,"torsion":[]},'
        '"target":{"rank":1,"torsion":[]}},"1":{"iso":false,"matrix":[[]],'
        '"source":{"rank":0,"torsion":[]},"target":{"rank":1,"torsion":[]}}},'
        '"iso_below_top":false,"pass":true}\n',
    ),
    (
        # captured when the Smith loop was still dense
        ["compare", "c300-id.json", "--nerve-m", "1", "--maxdim", "1"],
        '{"degrees":{"0":{"iso":true,"matrix":[[1]],"source":{"rank":1,"torsion":[]},'
        '"target":{"rank":1,"torsion":[]}}},"iso_below_top":true,"pass":true}\n',
    ),
]


# Face, degeneracy and connection tables; at m = 0 every structure map
# reads a single grid row.
TABLES = [
    (
        ["nerve", "c3.json", "--m", "1", "--maxdim", "3", "--tables"],
        '{"connections":{"1":{},"2":{"1,0":[0,4,6,11,12,17],"1,1":[0,1,6,7,16,17]},'
        '"3":{"1,0":[0,8,16,19,27,35,38,46,56,57,66,75,76,85,94,95,105,113],'
        '"1,1":[0,1,2,19,20,21,38,39,40,57,58,59,92,93,94,111,112,113],'
        '"2,0":[0,4,5,25,27,31,38,42,43,70,71,75,76,80,81,108,109,113],'
        '"2,1":[0,1,5,6,11,12,38,39,43,44,49,50,101,102,107,108,112,113]}},'
        '"cubes":[3,6,18,114],"degeneracies":{"1":{"1":[0,2,5]},"2":{"1":[0,3,6,9,14,17],'
        '"2":[0,2,6,8,15,17]},'
        '"3":{"1":[0,6,13,19,25,32,38,44,51,57,63,70,81,88,94,100,107,113],'
        '"2":[0,3,5,19,22,24,38,41,43,57,60,62,89,91,94,108,110,113],'
        '"3":[0,2,5,13,16,18,38,40,43,51,54,56,95,97,100,108,111,113]}},'
        '"faces":{"1":{"1,0":[0,0,1,1,2,2],"1,1":[0,1,1,2,0,2]},'
        '"2":{"1,0":[0,0,0,1,1,1,2,2,2,3,3,3,4,4,4,5,5,5],'
        '"1,1":[0,1,2,1,2,3,2,3,5,3,4,5,0,1,4,0,4,5],'
        '"2,0":[0,0,1,0,1,1,2,2,3,2,3,3,4,4,5,4,5,5],'
        '"2,1":[0,1,1,2,2,3,2,3,3,5,4,5,0,1,0,4,4,5]},'
        '"3":{"1,0":[0,0,0,0,0,0,1,1,1,1,1,1,1,2,2,2,2,2,2,3,3,3,3,3,3,4,4,4,4,4,4,4,5,5,5,5,'
        '5,5,6,6,6,6,6,6,7,7,7,7,7,7,7,8,8,8,8,8,8,9,9,9,9,9,9,10,10,10,10,10,10,11,11,11,11,'
        '11,11,11,12,12,12,12,12,12,12,13,13,13,13,13,13,14,14,14,14,14,14,15,15,15,15,15,15,'
        '16,16,16,16,16,16,16,17,17,17,17,17,17],'
        '"1,1":[0,1,2,3,4,6,1,2,3,4,5,6,7,2,4,5,6,7,8,3,4,5,6,7,9,4,5,6,7,8,9,11,5,7,8,9,10,'
        '11,6,7,8,9,11,17,7,8,9,10,11,16,17,8,10,11,15,16,17,9,10,11,14,16,17,10,12,13,14,15,'
        '16,10,11,12,14,15,16,17,0,1,2,3,4,12,13,1,2,3,4,5,13,0,1,3,12,13,14,0,1,2,12,13,15,'
        '0,1,12,13,14,15,16,0,12,14,15,16,17],'
        '"2,0":[0,0,0,1,1,2,0,0,1,1,1,2,2,0,1,1,2,2,2,3,3,3,4,4,5,3,3,4,4,4,5,5,3,4,4,5,5,5,'
        '6,6,6,7,7,8,6,6,7,7,7,8,8,6,7,7,8,8,8,9,9,9,10,11,11,9,10,10,10,11,11,9,9,10,10,11,'
        '11,11,12,12,12,13,13,14,14,12,12,13,13,13,14,12,12,13,14,14,14,15,15,15,16,16,17,15,'
        '15,16,16,16,17,17,15,16,16,17,17,17],'
        '"2,1":[0,1,2,1,2,2,3,4,3,4,5,4,5,6,6,7,6,7,8,3,4,5,4,5,5,6,7,6,7,8,7,8,9,9,11,9,10,'
        '11,6,7,8,7,8,8,9,11,9,10,11,10,11,17,16,17,15,16,17,9,10,11,10,10,11,14,12,13,14,12,'
        '14,16,17,15,16,15,16,17,0,1,2,1,2,0,1,3,4,3,4,5,3,12,13,13,12,13,14,0,1,2,0,1,0,12,'
        '13,12,13,14,12,14,15,15,16,15,16,17],'
        '"3,0":[0,0,1,0,1,2,0,1,0,1,1,2,2,3,3,3,4,4,5,0,1,1,2,2,2,3,3,4,4,5,4,5,3,4,5,4,5,5,'
        '6,6,7,6,7,8,6,7,6,7,7,8,8,9,9,9,10,11,11,6,7,7,8,8,8,9,10,10,11,10,11,9,9,10,11,10,'
        '11,11,12,12,13,12,13,14,14,12,13,12,13,13,14,15,15,15,16,16,17,12,12,13,14,14,14,15,'
        '15,16,16,17,16,17,15,16,17,16,17,17],'
        '"3,1":[0,1,1,2,2,2,3,3,4,4,5,4,5,3,4,5,4,5,5,6,6,7,6,7,8,6,7,6,7,7,8,8,9,9,9,11,10,'
        '11,6,7,7,8,8,8,9,9,11,10,11,10,11,9,10,11,10,10,11,17,16,17,15,16,17,14,12,13,12,14,'
        '14,16,17,15,15,16,16,17,0,1,1,2,2,0,1,3,3,4,4,5,3,0,1,2,0,1,0,12,13,13,12,13,14,12,'
        '13,12,13,12,14,14,15,15,15,16,16,17]}},"identity_violations":[],'
        '"nondegenerate":[3,3,3,45],"pass":true}\n',
    ),
    (
        ["nerve", "fan.json", "--m", "2", "--maxdim", "2", "--tables"],
        '{"connections":{"1":{},"2":{"1,0":[0,12,13,28,47,66,81,82,94],'
        '"1,1":[0,1,42,43,47,51,52,93,94]}},"cubes":[3,9,95],'
        '"degeneracies":{"1":{"1":[0,4,8]},"2":{"1":[0,10,18,32,47,62,76,84,94],'
        '"2":[0,4,34,38,47,56,60,90,94]}},"faces":{"1":{"1,0":[0,0,1,1,1,1,1,2,2],'
        '"1,1":[0,1,0,1,1,1,2,1,2]},'
        '"2":{"1,0":[0,0,0,0,0,1,1,1,1,1,1,1,1,2,2,2,2,2,2,2,2,3,3,3,3,3,3,3,3,3,3,3,3,3,4,4,'
        '4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,5,5,5,5,5,5,5,5,5,5,5,5,5,6,6,6,6,'
        '6,6,6,6,7,7,7,7,7,7,7,7,8,8,8,8,8],'
        '"1,1":[0,1,2,3,4,0,1,2,3,4,1,3,4,0,1,2,3,4,2,3,4,0,1,2,3,4,1,3,4,2,3,4,3,4,0,1,2,3,'
        '4,1,3,4,2,3,4,3,4,4,4,5,4,5,6,4,5,7,4,5,6,7,8,4,5,4,5,6,4,5,7,4,5,6,7,8,4,5,6,4,5,6,'
        '7,8,4,5,7,4,5,6,7,8,4,5,6,7,8],'
        '"2,0":[0,0,1,1,1,0,0,1,1,1,0,1,1,2,2,3,3,3,4,4,4,2,2,3,3,3,2,3,3,4,4,4,4,4,2,2,3,3,'
        '3,2,3,3,4,4,4,4,4,4,4,4,4,4,4,5,5,6,5,5,5,6,6,4,4,4,4,4,5,5,6,5,5,5,6,6,4,4,4,5,5,5,'
        '6,6,7,7,8,7,7,7,8,8,7,7,7,8,8],'
        '"2,1":[0,1,0,1,1,2,3,2,3,3,4,4,4,0,1,0,1,1,0,1,1,2,3,2,3,3,4,4,4,2,3,3,4,4,2,3,2,3,'
        '3,4,4,4,2,3,3,4,4,4,4,4,5,5,6,4,4,4,5,5,6,5,6,4,4,5,5,6,4,4,4,5,5,6,5,6,7,7,8,7,7,8,'
        '7,8,4,4,4,5,5,6,5,6,7,7,8,7,8]}},"identity_violations":[],"nondegenerate":[3,6,68],'
        '"pass":true}\n',
    ),
    (
        ["nerve", "c3.json", "--m", "0", "--maxdim", "3", "--tables"],
        '{"connections":{"1":{},"2":{"1,0":[0,1,2],"1,1":[0,1,2]},"3":{"1,0":[0,1,2],'
        '"1,1":[0,1,2],"2,0":[0,1,2],"2,1":[0,1,2]}},"cubes":[3,3,3,3],'
        '"degeneracies":{"1":{"1":[0,1,2]},"2":{"1":[0,1,2],"2":[0,1,2]},"3":{"1":[0,1,2],'
        '"2":[0,1,2],"3":[0,1,2]}},"faces":{"1":{"1,0":[0,1,2],"1,1":[0,1,2]},'
        '"2":{"1,0":[0,1,2],"1,1":[0,1,2],"2,0":[0,1,2],"2,1":[0,1,2]},"3":{"1,0":[0,1,2],'
        '"1,1":[0,1,2],"2,0":[0,1,2],"2,1":[0,1,2],"3,0":[0,1,2],"3,1":[0,1,2]}},'
        '"identity_violations":[],"nondegenerate":[3,0,0,0],"pass":true}\n',
    ),
]


@pytest.mark.parametrize(
    "argv, stdout",
    GOLDEN + TABLES,
    ids=[
        "c3-triangulated", "wedge-fold", "rp2", "rp2-identity", "rp2-vertex", "empty-c3",
        "c300-identity",
        "tables-c3-m1", "tables-fan-m2", "tables-c3-m0",
    ],
)
def test_stdout_is_pinned(files, capsys, argv, stdout):
    assert main([argv[0], str(files / argv[1]), *argv[2:]]) == 0
    assert capsys.readouterr().out == stdout


def test_long_cycle_coordinates_read_only_free_and_torsion_rows():
    # the compare above reads U and its inverse at these rows alone
    complex_, _ = normalized_chain_complex(nerve_levels(cycle(LONG), 1, 1, 1))
    assert complex_.ranks == [LONG, LONG]
    for n in (0, 1):
        coords = HomologyCoordinates(complex_, n)
        rows = coords.free_rows + coords.torsion_rows
        assert rows == ([LONG - 1] if n == 0 else [0])
        assert list(coords.u) == list(coords.u_inv) == rows


# Captured before the chain complexes were built from sparse columns.
NERVE_THEOREM = (
    '{"all_intersections_contractible_evidence":false,"checked_degrees":[0,1],'
    '"consistent":false,"digraph_nerve_homology":[{"rank":1,"torsion":[]},{"rank":1,'
    '"torsion":[]},{"rank":36,"torsion":[]}],"faces":[{"components":1,"empty":false,'
    '"face":["bottom"],"reduced_homology_below_top":[{"rank":0,"torsion":[]},'
    '{"rank":0,"torsion":[]}],"size":14,"weakly_contractible_evidence":true},'
    '{"components":1,"empty":false,"face":["bottom","left"],"reduced_homology_below_top":[{"rank":0,'
    '"torsion":[]},{"rank":0,"torsion":[]}],"size":8,"weakly_contractible_evidence":true},'
    '{"components":1,"empty":false,"face":["bottom","left","right"],"reduced_homology_below_top":[{"rank":0,'
    '"torsion":[]},{"rank":0,"torsion":[]}],"size":2,"weakly_contractible_evidence":true},'
    '{"components":1,"empty":false,"face":["bottom","left","top"],"reduced_homology_below_top":[{"rank":0,'
    '"torsion":[]},{"rank":0,"torsion":[]}],"size":2,"weakly_contractible_evidence":true},'
    '{"components":1,"empty":false,"face":["bottom","right"],"reduced_homology_below_top":[{"rank":0,'
    '"torsion":[]},{"rank":0,"torsion":[]}],"size":8,"weakly_contractible_evidence":true},'
    '{"components":1,"empty":false,"face":["bottom","right","top"],"reduced_homology_below_top":[{"rank":0,'
    '"torsion":[]},{"rank":0,"torsion":[]}],"size":2,"weakly_contractible_evidence":true},'
    '{"components":2,"empty":false,"face":["bottom","top"],"reduced_homology_below_top":[{"rank":1,'
    '"torsion":[]},{"rank":0,"torsion":[]}],"size":4,"weakly_contractible_evidence":false},'
    '{"components":1,"empty":false,"face":["left"],"reduced_homology_below_top":[{"rank":0,'
    '"torsion":[]},{"rank":0,"torsion":[]}],"size":14,"weakly_contractible_evidence":true},'
    '{"components":2,"empty":false,"face":["left","right"],"reduced_homology_below_top":[{"rank":1,'
    '"torsion":[]},{"rank":0,"torsion":[]}],"size":4,"weakly_contractible_evidence":false},'
    '{"components":1,"empty":false,"face":["left","right","top"],"reduced_homology_below_top":[{"rank":0,'
    '"torsion":[]},{"rank":0,"torsion":[]}],"size":2,"weakly_contractible_evidence":true},'
    '{"components":1,"empty":false,"face":["left","top"],"reduced_homology_below_top":[{"rank":0,'
    '"torsion":[]},{"rank":0,"torsion":[]}],"size":8,"weakly_contractible_evidence":true},'
    '{"components":1,"empty":false,"face":["right"],"reduced_homology_below_top":[{"rank":0,'
    '"torsion":[]},{"rank":0,"torsion":[]}],"size":14,"weakly_contractible_evidence":true},'
    '{"components":1,"empty":false,"face":["right","top"],"reduced_homology_below_top":[{"rank":0,'
    '"torsion":[]},{"rank":0,"torsion":[]}],"size":8,"weakly_contractible_evidence":true},'
    '{"components":1,"empty":false,"face":["top"],"reduced_homology_below_top":[{"rank":0,'
    '"torsion":[]},{"rank":0,"torsion":[]}],"size":14,"weakly_contractible_evidence":true}],'
    '"homology_agrees_below_top":false,"nerve_complex_homology":[{"rank":1,"torsion":[]},'
    '{"rank":0,"torsion":[]},{"rank":1,"torsion":[]}],"note":"evidence at the computed truncation only; degrees >= top are not read",'
    '"pass":false}\n'
)

COVER_EQUIV = (
    '{"faces":[{"face":["bottom"],"homology_iso_below_top":true,"size":14,"size_prime":14},'
    '{"face":["bottom","top"],"homology_iso_below_top":true,"size":4,"size_prime":4},'
    '{"face":["top"],"homology_iso_below_top":true,"size":14,"size_prime":14}],'
    '"global":{"0":true,"1":true},"global_matrices":{"0":[[1]],"1":[[1]]},"pass":true}\n'
)

# captured before the unreachable "both empty" verdict was deleted
COVER_EQUIV_ONE_SIDE_EMPTY = (
    '{"faces":[{"face":["x"],"homology_iso_below_top":true,"size":1,"size_prime":1},'
    '{"face":["x","y"],"size":0,"size_prime":1,"verdict":"one side empty"},'
    '{"face":["y"],"homology_iso_below_top":true,"size":1,"size_prime":1}],'
    '"global":{"0":false,"1":true},"global_matrices":{"0":[[1,1]],"1":[]},"pass":false}\n'
)

PI1 = (
    '{"abelianization":{"rank":1,"torsion":[]},"generators":13,"reduced_generators":2,'
    '"reduced_relators":2,"relators":24}\n'
)


# Report paths no string above reaches: simplicial homology of a cover's
# nerve, the per-face comparison of two covers (also with a face on one
# side only), and the pi1 presentation.
REPORTS = [
    (["nerve-theorem", "o.json", "o-rows-columns.json"], 1, NERVE_THEOREM),
    (["check", "cover-equiv", "o-id.json", "o-rows.json", "o-rows.json"], 0, COVER_EQUIV),
    (["check", "cover-equiv", "ab-point.json", "ab-cover.json", "point-cover.json"], 1,
     COVER_EQUIV_ONE_SIDE_EMPTY),
    (["pi1", "o.json", "--base", "00"], 0, PI1),
]


@pytest.mark.parametrize(
    "argv, code, stdout", REPORTS,
    ids=["nerve-theorem-o", "cover-equiv-o", "cover-equiv-one-side-empty", "pi1-o"],
)
def test_report_is_pinned(files, capsys, argv, code, stdout):
    argv = [str(files / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == code
    assert capsys.readouterr().out == stdout


# The backward-first interval (`--sign -`): the out-fan at m = 3, K = 2,
# cubes [3, 19, 3181].  Its 31,720 bytes of `--tables` stdout are pinned by
# their SHA-256, captured while each level was still enumerated by
# backtracking over the grid, and equal under PYTHONHASHSEED 0, 1, 2, 7.
SIGN_MINUS_TABLES_SHA256 = "9df1807c8834563e669cb9eff02ff63325ff070c636f769ab819e2bd55b22f0c"


def test_backward_first_tables_are_pinned(files, capsys):
    argv = ["nerve", str(files / "fan.json"), "--m", "3", "--maxdim", "2", "--sign", "-", "--tables"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert '"cubes":[3,19,3181]' in out
    assert hashlib.sha256(out.encode()).hexdigest() == SIGN_MINUS_TABLES_SHA256


# Lifting through maps that are not 1-coverings, which takes the enumeration
# path of `check_unique_lifting` (witness `alpha` and `lifts`), and the
# covering report of one of them.  SHA-256 of stdout, captured while the
# enumeration ran one search per anchor and square, and equal under
# PYTHONHASHSEED 0 and 1.
NON_COVERING = [
    (["check", "lifting", "i3-c3.json", "--horn", "2,2,1,2"],
     '"squares":44', "9aee8c7d073839eb143741997650ff688d0413e9668b22faa22116c4d1cac933"),
    (["check", "lifting", "c6-point.json", "--horn", "2,1,0,2"],
     '"lifts":3', "270a2bd829284e08b9720d1f4adf989bb97a2cf739c009b15c73779526453d12"),
    (["check", "covering", "i3-c3.json", "--l", "2"],
     '"one_covering":false', "76234f1d99d57bf6c953bbd350ff94faa022be6b555a5ce91c6a7f9e4a762539"),
]


@pytest.mark.parametrize(
    "argv, fragment, sha256", NON_COVERING,
    ids=["lifting-i3-no-lift", "lifting-c6-point-three-lifts", "covering-i3"],
)
def test_non_covering_reports_are_pinned(files, capsys, argv, fragment, sha256):
    argv = [str(files / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert fragment in out
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# A 1-covering through which a horn's square does not lift: the counted
# route's witness is the first base map, in the lister's order, with an
# anchor that spreads along the horn but not along the cube.  Captured while
# that route still listed every base map and spread from each anchor.
FAILING_COVERING_LIFTING = (
    '{"pass":false,"squares":87,"unique":false,"witness":{"anchor":"\'0a\'",'
    '"beta":["\'0\'","\'0\'","\'0\'","\'0\'","\'0\'","\'0\'","\'0\'","\'1\'",'
    '"\'0\'","\'0\'","\'0\'","\'1\'","\'0\'","\'2\'","\'2\'","\'3\'"],'
    '"lifts":0}}\n'
)


def test_failing_covering_lifting_is_pinned(files, capsys):
    argv = ["check", "lifting", str(files / "square-cover.json"), "--horn", "2,1,0,3"]
    assert main(argv) == 1
    assert capsys.readouterr().out == FAILING_COVERING_LIFTING
