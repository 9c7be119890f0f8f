import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dgh import nerve, triangulation
from dgh.cli import build_parser, main


@pytest.fixture()
def files(tmp_path):
    c3 = {"vertices": ["0", "1", "2"], "arrows": [["0", "1"], ["1", "2"], ["2", "0"]]}
    c6 = {
        "vertices": [str(i) for i in range(6)],
        "arrows": [[str(i), str((i + 1) % 6)] for i in range(6)],
    }
    (tmp_path / "c3.json").write_text(json.dumps(c3))
    (tmp_path / "c6.json").write_text(json.dumps(c6))
    (tmp_path / "p.json").write_text(
        json.dumps(
            {
                "source": "c6.json",
                "target": "c3.json",
                "assignment": {str(i): str(i % 3) for i in range(6)},
            }
        )
    )
    (tmp_path / "cover.json").write_text(
        json.dumps({"members": {"a": ["0", "1"], "b": ["1", "2"], "c": ["2", "0"]}})
    )
    (tmp_path / "bad.json").write_text(
        json.dumps({"vertices": ["a", "a"], "arrows": []})
    )
    (tmp_path / "loop.json").write_text(
        json.dumps({"vertices": ["a"], "arrows": [["a", "a"]]})
    )
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


class TestExitCodes:
    def test_homology_passes(self, files, capsys):
        code, out = run(capsys, "homology", files / "c3.json")
        assert code == 0
        data = json.loads(out)
        assert data["H"][0] == {"rank": 1, "torsion": []}
        assert data["H"][1] == {"rank": 1, "torsion": []}

    def test_missing_file_is_input_error(self, files, capsys):
        assert main(["info", str(files / "missing.json")]) == 2

    def test_duplicate_vertices_input_error(self, files, capsys):
        assert main(["info", str(files / "bad.json")]) == 2

    def test_self_loop_input_error(self, files, capsys):
        assert main(["info", str(files / "loop.json")]) == 2

    def test_budget_exceeded(self, files, capsys):
        code = main(
            ["--max-maps", "2", "classes", str(files / "c3.json"), str(files / "c3.json")]
        )
        assert code == 3

    def test_cube_budget_flag(self, files, capsys):
        assert main(["--max-cubes", "4", "nerve", str(files / "c3.json")]) == 3

    def test_cube_budget_error_names_budget_and_level(self, files, capsys):
        # levels 0..2 of N_2(C3) hold 3 + 12 + 246 cubes; level 3 breaks 1000
        argv = ["--max-cubes", "1000", "nerve", files / "c3.json", "--m", "2", "--maxdim", "3"]
        assert main([str(a) for a in argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error == {"error": "nerve exceeds 1000 total cubes at level 3", "kind": "budget"}

    def test_cube_budget_trips_before_level_four_is_built(self, files, capsys):
        # level 3 of N_2(C3) holds 426,342 cubes, and each has about 20,000
        # box-hom neighbours: the arrow bound breaks the default budget
        argv = ["nerve", files / "c3.json", "--m", "2", "--maxdim", "4"]
        assert main([str(a) for a in argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "nerve exceeds 1000000 total cubes at level 4",
            "kind": "budget",
        }

    @pytest.mark.parametrize(
        "argv, degree, count",
        [
            # the triangulation of N_1(C3) up to K=4: ranks [3, 2268, 31314, ...]
            (["--nerve-m", "1", "--maxdim", "4", "--triangulated"], 2, 31314),
            (["--nerve-m", "2", "--maxdim", "3"], 3, 424755),
        ],
        ids=["triangulated", "cubical"],
    )
    def test_generator_ceiling_names_degree_and_count(
        self, files, capsys, monkeypatch, argv, degree, count
    ):
        built = []
        monkeypatch.setattr(triangulation, "_simplex_keys", lambda *args: built.append(args))
        assert main(["homology", str(files / "c3.json"), *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": f"chain group {degree} has {count} generators, over the 20000 ceiling",
            "kind": "budget",
        }
        assert built == []  # the ceiling trips on counted ranks, before any simplex key

    def test_lifting_budget_counts_base_maps(self, files, capsys):
        # the side-3 square has 7,812 maps into C3, each with a fiber of 2
        argv = ["check", "lifting", files / "p.json", "--horn", "2,1,0,3"]
        assert main([str(a) for a in ["--max-maps", "7811", *argv]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            '{"error": "more than 7811 digraph maps during enumeration", '
            '"kind": "budget"}\n'
        )
        assert main([str(a) for a in ["--max-maps", "7812", *argv]]) == 0
        assert capsys.readouterr().out == '{"pass":true,"squares":15624,"unique":true}\n'

    @pytest.mark.parametrize("flag", ["--max-cubes", "--max-maps"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_budget_is_input_error(self, files, capsys, flag, value):
        assert main([flag, value, "nerve", str(files / "c3.json")]) == 2

    @pytest.mark.parametrize("vertices", [5, [[1, 2]], [True], "abc"])
    def test_malformed_vertices_input_error(self, files, capsys, vertices):
        (files / "odd.json").write_text(json.dumps({"vertices": vertices}))
        assert main(["info", str(files / "odd.json")]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command, value", [("homology", "-2"), ("nerve", "-1")])
    def test_negative_maxdim_is_input_error(self, files, capsys, command, value):
        with pytest.raises(SystemExit) as exc:
            main([command, str(files / "c3.json"), "--maxdim", value])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv, name, data",
        [
            (["compare", "{bad}"], "map.json", 5),
            (
                ["compare", "{bad}"],
                "map.json",
                {"source": 5, "target": "c3.json", "assignment": {}},
            ),
            (["check", "cover", "{dir}/c3.json", "{bad}"], "cover.json", {"members": {"a": [["0"]]}}),
            (
                ["check", "ddr", "{dir}/c3.json", "--part", "0", "--eta", "{bad}"],
                "eta.json",
                {"assignment": ["0", "0", "0"]},
            ),
        ],
        ids=["map-not-object", "map-source-not-path", "cover-member-list", "eta-assignment-list"],
    )
    def test_malformed_file_is_input_error(self, files, capsys, argv, name, data):
        (files / name).write_text(json.dumps(data))
        assert main([a.format(dir=files, bad=files / name) for a in argv]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["info", "{dir}"],
            ["info", "{dir}/bin.json"],
            ["compare", "{dir}/dot-source.json"],
        ],
        ids=["directory", "not-utf8", "map-source-directory"],
    )
    def test_unreadable_file_is_input_error(self, files, capsys, argv):
        (files / "bin.json").write_bytes(b"\xff\xfe\x00")
        (files / "dot-source.json").write_text(
            json.dumps({"source": ".", "target": "c3.json", "assignment": {}})
        )
        assert main([a.format(dir=files) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["kind"] == "input"

    def test_failed_internal_invariant_is_internal_error(self, files, capsys, monkeypatch):
        # a corrupted face table breaks the cubical identities, which the
        # homology pipeline checks before it builds the complex
        build = nerve.TruncatedCubicalSet._build_tables

        def corrupted(self):
            build(self)
            self.faces[1][(1, 0)] = [0] * len(self.cubes[1])

        monkeypatch.setattr(nerve.TruncatedCubicalSet, "_build_tables", corrupted)
        assert main(["homology", str(files / "c3.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "face-face: (2, 1, 1, 0, 1, 2)",
            "kind": "internal",
        }

    def test_face_reduced_to_no_simplex_is_internal_error(self, files, capsys, monkeypatch):
        # the cubical complex is built and checked first; the triangulation
        # then meets a d_(1,0) that names no vertex
        init = triangulation.Triangulation.__init__

        def corrupted(self, x):
            init(self, x)
            x.faces[1][(1, 0)] = [len(x.cubes[0])] * len(x.cubes[1])

        monkeypatch.setattr(triangulation.Triangulation, "__init__", corrupted)
        assert main(["homology", str(files / "c3.json"), "--triangulated"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "face reduced to an unknown simplex",
            "kind": "internal",
        }

    def test_non_integer_coordinate_base_is_unknown_vertex(self, files, capsys):
        assert main(["pi1", str(files / "c3.json"), "--base", "a:b"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "unknown vertex 'a:b'"

    def test_integer_labelled_map(self, files, capsys):
        (files / "c3int.json").write_text(
            json.dumps({"vertices": [0, 1, 2], "arrows": [[0, 1], [1, 2], [2, 0]]})
        )
        (files / "rot.json").write_text(
            json.dumps(
                {
                    "source": "c3int.json",
                    "target": "c3int.json",
                    "assignment": {"0": 1, "1": 2, "2": 0},
                }
            )
        )
        code, out = run(capsys, "compare", files / "rot.json")
        assert code == 0
        assert json.loads(out)["iso_below_top"] is True

    def test_failed_check_exits_one(self, files, capsys):
        # three overlapping arcs of the 3-cycle are not closed, so some cube
        # escapes the cover
        code, out = run(
            capsys, "check", "cover", files / "c3.json", files / "cover.json"
        )
        assert code == 1


# JSON the loaders may meet: nested null, bool, int, float and string values,
# lists, and objects keyed by the input formats' own keys, mixed with
# near-valid digraph, map and cover files.  Strings come from a short list
# that names the fuzzed files, so a map's "source" and "target" can point
# at them.
FILES = ["f.json", "g.json", "h.json"]
LABELS = st.sampled_from(["0", "1", "a", "", *FILES]) | st.integers(0, 2)
KEYS = st.sampled_from(
    ["vertices", "arrows", "source", "target", "assignment", "members", "0", "a"]
)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | LABELS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=12,
)
VERTEX = st.sampled_from(["0", "1", "a"]) | st.integers(0, 1)
ITEM = st.one_of(VERTEX, VERTEX, LABELS, JSON)
DIGRAPH = st.fixed_dictionaries({
    "vertices": st.lists(ITEM, max_size=4, unique_by=repr),
    "arrows": st.lists(st.lists(ITEM, min_size=2, max_size=2), max_size=4),
})
DOCUMENT = st.one_of(
    JSON,
    DIGRAPH,
    st.fixed_dictionaries({
        "source": st.sampled_from(FILES) | ITEM,
        "target": st.sampled_from(FILES) | ITEM,
        "assignment": st.dictionaries(st.sampled_from(["0", "1", "a"]), ITEM, max_size=3),
    }),
    st.fixed_dictionaries({
        "members": st.dictionaries(st.sampled_from(["a", "b"]), st.lists(ITEM, max_size=3) | ITEM,
                                   max_size=2),
    }),
)


# The integer options of every subcommand are drawn from INTS, and the
# budgets from BUDGETS, small enough that no draw runs long.  The files are
# fuzzed documents or valid ones over the 3-cycle on "0", "1", "2", so that
# some draws pass.
INTS = st.sampled_from([1, 0, 2, -1])
BUDGETS = st.sampled_from([2000, 50, 1])
PART = st.sampled_from(["0", "0,1", "a", "z", ""])
C3 = {"vertices": ["0", "1", "2"], "arrows": [["0", "1"], ["1", "2"], ["2", "0"]]}
MAPS = st.sampled_from([
    {"source": "h.json", "target": "h.json", "assignment": {v: v for v in "012"}},
    {"source": "h.json", "target": "h.json", "assignment": {v: "0" for v in "012"}},
])
COVERS = st.sampled_from([
    {"members": {"a": ["0", "1", "2"]}},
    {"members": {"a": ["0", "1"], "b": ["1", "2"], "c": ["2", "0"]}},
    {"assignment": {"0": "0", "1": "0", "2": "2"}},
])


def _ints(data, *options):
    return [item for option in options for item in (option, data.draw(INTS))]


def _subcommands(parser):
    """Every subcommand of `parser` as its path of names, the nested ones
    (`check kan`) included."""
    paths = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                paths += [(name, *rest) for rest in _subcommands(sub)] or [(name,)]
    return paths


# subcommand -> (its arguments after the name, drawn over the fuzzed files
# f, g and h; the items a passing report lists as checked, or None where
# the command checks nothing)
FUZZ = {
    ("info",): (lambda d, f, g, h: [h], None),
    ("pi0",): (lambda d, f, g, h: [h], None),
    ("classes",): (
        lambda d, f, g, h: [h, h, "--rel", d.draw(PART), "--target-part", d.draw(PART)],
        None,
    ),
    ("antower",): (
        lambda d, f, g, h: [
            h, "--base", d.draw(PART), *_ints(d, "--n", "--stages"),
            "--tower", d.draw(st.sampled_from(["st", "r", "l", "odd", "cantor"])),
        ],
        None,
    ),
    ("nerve",): (
        lambda d, f, g, h: [
            h, "--sign", d.draw(st.sampled_from("+-")), *_ints(d, "--m", "--maxdim"),
            *d.draw(st.sampled_from([[], ["--tables"]])),
        ],
        None,
    ),
    ("homology",): (
        lambda d, f, g, h: [
            h, *_ints(d, "--nerve-m", "--maxdim"),
            *d.draw(st.sampled_from([[], ["--triangulated"]])),
        ],
        # the degrees below the top, where the two oracles are compared
        lambda r: r["triangulated_H"][:-1] if "pass" in r else None,
    ),
    ("pi1",): (
        lambda d, f, g, h: [h, "--base", d.draw(PART), *_ints(d, "--nerve-m", "--maxdim")],
        None,
    ),
    ("compare",): (
        lambda d, f, g, h: [f, *_ints(d, "--nerve-m", "--maxdim")],
        lambda r: r["degrees"],
    ),
    ("nerve-theorem",): (
        lambda d, f, g, h: [h, g, *_ints(d, "--maxdim")],
        lambda r: r["checked_degrees"],
    ),
    ("check", "shrinkings"): (
        lambda d, f, g, h: [d.draw(st.text("<>", max_size=4)) for _ in range(2)],
        None,
    ),
    ("check", "ddr"): (
        lambda d, f, g, h: [h, "--part", d.draw(PART), "--eta", g],
        lambda r: r["conditions"],
    ),
    ("check", "oddr"): (
        lambda d, f, g, h: [h, "--part", d.draw(PART), "--eta", g],
        lambda r: r["conditions"],
    ),
    ("check", "cover"): (
        lambda d, f, g, h: [h, g, *_ints(d, "--maxdim")],
        lambda r: r["levels"],
    ),
    ("check", "cover-equiv"): (
        lambda d, f, g, h: [f, g, g, *_ints(d, "--maxdim")],
        lambda r: r["global"],
    ),
    ("check", "covering"): (
        lambda d, f, g, h: [f, *_ints(d, "--l")],
        lambda r: r["conditions"],
    ),
    ("check", "lifting"): (
        lambda d, f, g, h: [f, "--horn", ",".join(str(d.draw(INTS)) for _ in range(4))],
        None,
    ),
    ("check", "kan"): (lambda d, f, g, h: _ints(d, "--m", "--n"), lambda r: r["fillers"]),
    ("check", "rho"): (lambda d, f, g, h: _ints(d, "--m", "--n"), lambda r: r["reports"]),
    ("verify",): (
        lambda d, f, g, h: [
            "paper", "--suite", d.draw(st.sampled_from(["closure", "saturation", "x"]))
        ],
        lambda r: r["checks"],
    ),
}


class TestLoaderFuzz:
    @settings(max_examples=60, deadline=None)
    @given(DOCUMENT, DOCUMENT, DIGRAPH, st.sampled_from(["0", "0,1", "a", "z"]))
    def test_random_json_never_escapes(self, f, g, h, part):
        with tempfile.TemporaryDirectory() as tmp:
            f_path, g_path, h_path = (Path(tmp, name) for name in FILES)
            for path, data in ((f_path, f), (g_path, g), (h_path, h)):
                path.write_text(json.dumps(data))
            for argv in (
                ["info", f_path],
                ["compare", f_path],
                ["check", "cover", h_path, g_path],
                ["check", "ddr", h_path, "--part", part, "--eta", g_path],
            ):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([str(a) for a in argv])
                assert code in (0, 1, 2, 3), argv
                if code == 2:
                    assert out.getvalue() == "", argv

    def test_fuzz_covers_every_subcommand(self):
        # a subcommand added without a FUZZ entry fails here
        assert sorted(_subcommands(build_parser())) == sorted(FUZZ)

    @pytest.mark.parametrize("path", sorted(FUZZ), ids=" ".join)
    @settings(max_examples=40, deadline=None)
    @given(
        f=MAPS | DOCUMENT, g=COVERS | DOCUMENT, h=st.just(C3) | DIGRAPH, data=st.data()
    )
    def test_every_subcommand_keeps_the_exit_code_contract(self, path, f, g, h, data):
        arguments, checked = FUZZ[path]
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp, name) for name in FILES]
            for file, document in zip(paths, (f, g, h)):
                file.write_text(json.dumps(document))
            budgets = ["--max-cubes", data.draw(BUDGETS), "--max-maps", data.draw(BUDGETS)]
            argv = [str(a) for a in [*budgets, *path, *arguments(data, *paths)]]
            out, err = io.StringIO(), io.StringIO()
            # any exception but argparse's exit escapes and fails the test:
            # no input ends in a traceback
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        assert code in (0, 1, 2, 3), argv
        if code >= 2:
            assert out.getvalue() == "", argv
            return
        report = json.loads(out.getvalue())
        if code == 0 and checked is not None:
            # a pass must have checked something
            items = checked(report)
            assert items is None or len(items) >= 1, argv


class TestDeterminism:
    def test_byte_identical_reports(self, files, capsys):
        _, first = run(capsys, "homology", files / "c3.json")
        _, second = run(capsys, "homology", files / "c3.json")
        assert first == second
        _, third = run(capsys, "verify", "paper", "--suite", "rho")
        _, fourth = run(capsys, "verify", "paper", "--suite", "rho")
        assert third == fourth

    def test_shared_parser_keeps_no_options(self, files, capsys):
        # the parser is built once per process; options given to one call
        # must not become the defaults of the next
        assert build_parser() is build_parser()
        argv = ("nerve", files / "c3.json")
        _, text = run(capsys, "--format", "text", *argv, "--m", "2", "--maxdim", "1")
        _, json_out = run(capsys, *argv)
        assert "cubes" in text and not text.startswith("{")
        assert json.loads(json_out)["cubes"] == [3, 6, 18]


class TestCommands:
    def test_info(self, files, capsys):
        code, out = run(capsys, "info", files / "c3.json")
        assert code == 0
        assert json.loads(out) == {
            "arrows": 3,
            "components": 1,
            "pass": True,
            "vertices": 3,
        }

    def test_pi0(self, files, capsys):
        code, out = run(capsys, "pi0", files / "c3.json")
        assert json.loads(out)["count"] == 1

    def test_text_format_renders_json_content(self, files, capsys):
        code, out = run(capsys, "--format", "text", "info", files / "c3.json")
        assert code == 0
        assert "vertices: 3" in out

    def test_classes(self, files, capsys):
        code, out = run(
            capsys, "classes", files / "c3.json", files / "c3.json"
        )
        assert code == 0
        assert json.loads(out)["classes"] >= 1

    def test_classes_from_empty_digraph(self, files, capsys):
        (files / "empty.json").write_text(json.dumps({"vertices": [], "arrows": []}))
        code, out = run(capsys, "classes", files / "empty.json", files / "c3.json")
        assert code == 0
        data = json.loads(out)
        assert (data["maps"], data["classes"]) == (1, 1)

    def test_antower(self, files, capsys):
        code, out = run(
            capsys,
            "antower",
            files / "c3.json",
            "--base",
            "0",
            "--stages",
            "6",
        )
        assert code == 0
        assert json.loads(out)["class_counts"] == [1, 1, 1, 1, 2, 3]

    def test_nerve_counts(self, files, capsys):
        code, out = run(capsys, "nerve", files / "c3.json", "--maxdim", "2")
        data = json.loads(out)
        assert data["cubes"] == [3, 6, 18]
        assert data["nondegenerate"] == [3, 3, 3]

    def test_pi1(self, files, capsys):
        code, out = run(capsys, "pi1", files / "c3.json", "--base", "0")
        data = json.loads(out)
        assert data["abelianization"] == {"rank": 1, "torsion": []}

    def test_check_covering(self, files, capsys):
        code, out = run(capsys, "check", "covering", files / "p.json", "--l", "2")
        assert code == 0
        assert json.loads(out)["is_l_covering"] is True

    def test_check_covering_fails_at_three(self, files, capsys):
        code, out = run(capsys, "check", "covering", files / "p.json", "--l", "3")
        assert code == 1

    def test_check_lifting(self, files, capsys):
        code, out = run(
            capsys,
            "check",
            "lifting",
            files / "p.json",
            "--horn",
            "1,1,0,2",
        )
        assert code == 0

    def test_check_kan(self, files, capsys):
        code, out = run(capsys, "check", "kan", "--m", "1", "--n", "2")
        assert code == 0

    def test_check_rho(self, files, capsys):
        code, out = run(capsys, "check", "rho", "--m", "2", "--n", "2")
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "rho", "--m", "2", "--n", "0"],
            ["check", "rho", "--m", "3", "--n", "0"],
            ["check", "kan", "--n", "0"],
            ["check", "kan", "--m", "-1", "--n", "0"],
        ],
        ids=["rho-n0", "rho-odd-m-n0", "kan-n0", "kan-negative-m-n0"],
    )
    def test_check_without_dimensions_is_input_error(self, capsys, argv):
        # n = 0 would run no check, not even on --m, and pass vacuously
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "need n >= 1, got 0", "kind": "input"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "{dir}/id.json"],
            ["homology", "{dir}/c3.json", "--triangulated"],
            ["check", "cover-equiv", "{dir}/id.json", "{dir}/cover.json", "{dir}/cover.json"],
            ["nerve-theorem", "{dir}/c3.json", "{dir}/whole.json"],
        ],
        ids=["compare", "homology-triangulated", "cover-equiv", "nerve-theorem"],
    )
    def test_comparison_without_degrees_is_input_error(self, files, capsys, argv):
        # --maxdim 0 would compare no degree and pass vacuously
        (files / "id.json").write_text(json.dumps(
            {"source": "c3.json", "target": "c3.json", "assignment": {v: v for v in "012"}}
        ))
        (files / "whole.json").write_text(json.dumps({"members": {"a": ["0", "1", "2"]}}))
        argv = [a.format(dir=files) for a in argv] + ["--maxdim", "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "need --maxdim >= 1 to compare a degree, got 0", "kind": "input"
        }
        assert main(argv[:-1] + ["1"]) == 0

    def test_check_shrinkings(self, files, capsys):
        code, out = run(capsys, "check", "shrinkings", "><><", "><")
        assert code == 0
        data = json.loads(out)
        assert data["count"] >= 1

    def test_compare(self, files, capsys):
        (files / "rot.json").write_text(
            json.dumps(
                {
                    "source": "c3.json",
                    "target": "c3.json",
                    "assignment": {"0": "1", "1": "2", "2": "0"},
                }
            )
        )
        code, out = run(capsys, "compare", files / "rot.json", "--maxdim", "2")
        assert code == 0
        data = json.loads(out)
        assert data["iso_below_top"] is True
        assert data["degrees"]["1"]["matrix"] == [[1]]

    def test_compare_builds_each_complex_once(self, files, capsys, monkeypatch):
        # the chain-map matrices (both complexes, their checks) are kept on
        # the cubical map, not rebuilt for every degree
        import dgh.homology

        calls = []
        build = dgh.homology.normalized_chain_complex

        def counting(x, *args, **kwargs):
            calls.append(x)
            return build(x, *args, **kwargs)

        monkeypatch.setattr(dgh.homology, "normalized_chain_complex", counting)
        code, out = run(capsys, "compare", files / "p.json", "--maxdim", "3")
        assert code == 0
        assert set(json.loads(out)["degrees"]) == {"0", "1", "2"}
        assert len(calls) == 2

    def test_nerve_theorem(self, files, capsys):
        (files / "trivial_cover.json").write_text(
            json.dumps({"members": {"all": ["0", "1", "2"]}})
        )
        code, out = run(
            capsys,
            "nerve-theorem",
            files / "c3.json",
            files / "trivial_cover.json",
        )
        # the cycle is not contractible, so the one-member cover cannot be
        # a consistent nerve witness
        assert code == 1
        assert json.loads(out)["consistent"] is False

    def test_check_ddr(self, files, capsys):
        (files / "i1.json").write_text(
            json.dumps({"vertices": ["a", "b"], "arrows": [["a", "b"]]})
        )
        (files / "eta.json").write_text(
            json.dumps({"assignment": {"a": "a", "b": "a"}})
        )
        code, out = run(
            capsys,
            "check",
            "ddr",
            files / "i1.json",
            "--part",
            "a",
            "--eta",
            files / "eta.json",
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_verify_suite_header(self, files, capsys):
        code, out = run(capsys, "verify", "paper", "--suite", "closure")
        assert code == 0
        data = json.loads(out)
        assert data["suite"] == "closure"
        assert isinstance(data["anchor"], str) and data["anchor"]

    def test_unknown_suite(self, files, capsys):
        assert main(["verify", "paper", "--suite", "nope"]) == 2

    def test_unknown_verify_target(self, capsys):
        # argparse's choices reject it: exit 2, nothing on stdout
        with pytest.raises(SystemExit) as exc:
            main(["verify", "other"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'other'" in captured.err
