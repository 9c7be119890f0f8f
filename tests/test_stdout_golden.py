"""Exact stdout of a few CLI calls, pinned byte for byte.

The reports on stdout are a contract: a change to elimination, homology
coordinates or rendering must leave them as they are.  The strings below
were captured before unit-pivot elimination replaced the dense Smith form
on the rank path, and were the same under several PYTHONHASHSEED values.
"""

import json

import pytest

from dgh.cli import main

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
    for name, data in (
        ("c3.json", c3),
        ("wedge.json", wedge),
        ("fold.json", fold),
        ("rp2.json", projective_plane()),
    ):
        (tmp_path / name).write_text(json.dumps(data))
    return tmp_path


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
]


@pytest.mark.parametrize("argv, stdout", GOLDEN, ids=["c3-triangulated", "wedge-fold", "rp2"])
def test_stdout_is_pinned(files, capsys, argv, stdout):
    assert main([argv[0], str(files / argv[1]), *argv[2:]]) == 0
    assert capsys.readouterr().out == stdout
