"""JSON file formats for digraphs, maps, and covers."""

from __future__ import annotations

import json
from pathlib import Path

from .digraph import Digraph, DigraphMap
from .errors import InputError, UnknownVertex


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from None


def _is_label(value):
    # bool is a subclass of int, but true/false are not vertex labels
    return type(value) in (str, int)


def parse_vertex(g, label):
    """The vertex of g that `label` names: the label itself, or the integer
    a string label spells (command-line arguments and JSON object keys are
    always strings)."""
    if _is_label(label) and label in g:
        return label
    if isinstance(label, str):
        try:
            number = int(label)
        except ValueError:
            number = None
        if number is not None and number in g:
            return number
    raise UnknownVertex(f"unknown vertex {label!r}")


def load_digraph(path):
    """{"vertices": ["a", ...], "arrows": [["a","b"], ...]}"""
    data = _load_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("vertices"), list):
        raise InputError(f"{path}: expected an object with a 'vertices' list")
    if not all(_is_label(v) for v in data["vertices"]):
        raise InputError(f"{path}: vertex labels must be strings or integers")
    arrows = data.get("arrows", [])
    if not isinstance(arrows, list) or not all(
        isinstance(a, list) and len(a) == 2 and all(map(_is_label, a)) for a in arrows
    ):
        raise InputError(f"{path}: arrows must be two-element lists of labels")
    return Digraph(data["vertices"], (tuple(a) for a in arrows))


def _load_object(path, key):
    """The JSON object in `path` and its entry `key`, which must be an
    object too."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    if key not in data:
        raise InputError(f"{path}: missing '{key}'")
    if not isinstance(data[key], dict):
        raise InputError(f"{path}: '{key}' must be an object")
    return data


def load_map(path):
    """{"source": "<path>", "target": "<path>", "assignment": {"a": "x", ...}}

    Source/target paths are resolved relative to the map file's directory.
    """
    data = _load_object(path, "assignment")
    for key in ("source", "target"):
        if not isinstance(data.get(key), str):
            raise InputError(f"{path}: '{key}' must be a file path")
    base = Path(path).parent
    source = load_digraph(base / data["source"])
    target = load_digraph(base / data["target"])
    assignment = {
        parse_vertex(source, k): parse_vertex(target, v)
        for k, v in data["assignment"].items()
    }
    if len(assignment) != len(data["assignment"]):
        raise InputError(f"{path}: the assignment names a vertex twice")
    return DigraphMap(source, target, assignment)


def load_cover(path):
    """{"members": {"name": ["v1", "v2", ...], ...}}"""
    members = _load_object(path, "members")["members"]
    if not members:
        raise InputError(f"{path}: 'members' is empty")
    for name, verts in members.items():
        if not isinstance(verts, list) or not all(map(_is_label, verts)):
            raise InputError(
                f"{path}: member {name!r} must be a list of vertex labels"
            )
    return {name: tuple(verts) for name, verts in members.items()}


def load_assignment(path):
    """{"assignment": {"a": "x", ...}} — an endomap given by assignment only."""
    return dict(_load_object(path, "assignment")["assignment"])
