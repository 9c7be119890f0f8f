"""The traced benchmark's hooks into `dgh`, kept resolvable.

`perfbench/spans.py` wraps the functions named in its `LAYERS` table and
counts their results; a rename or a change of result format inside `dgh`
would break `run.py --trace 1` only when the benchmark runs.  These tests
resolve every entry and run every counter on a real result, without
installing the wrappers (which rebind module functions), and run the traced
benchmark itself on both workloads in a subprocess.
"""

import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from dgh.coverings import check_unique_lifting
from dgh.digraph import DigraphMap, enumerate_digraph_maps
from dgh.homology import normalized_chain_complex
from dgh.homotopy import homotopy_classes
from dgh.nerve import horn_inclusion, nerve_levels
from dgh.triangulation import triangulate

from conftest import cycle, dense_boundaries, line

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_resolves(spans):
    for module_name, qualname, _name, _counter in spans.LAYERS:
        owner, attr = spans._resolve(module_name, qualname)
        assert callable(getattr(owner, attr)), (module_name, qualname)
    for module_name, attr in spans.UNWRAPPED:
        assert callable(getattr(sys.modules[module_name], attr))


def test_counters_read_real_results(spans, c3):
    counts = Counter()
    x = nerve_levels(c3, 1, 1, 2)
    spans._count_nerve(counts, (), {}, x)
    assert counts["nerve.cubes"] == 3 + 6 + 18
    assert counts["nerve.nondegenerate"] == 3 + 3 + 3

    complex_, _ = normalized_chain_complex(x)
    spans._count_matrix(counts, (dense_boundaries(complex_)[1],), {}, None)
    assert counts["linalg.elim_calls"] == 1
    assert counts["linalg.dense_slots"] == 3 * 3
    assert counts["linalg.nnz"] == sum(map(len, complex_.columns[1])) == 6
    assert counts["linalg.max_cols"] == 3

    t = triangulate(x)
    spans._count_simplices(counts, (), {}, t)
    assert counts["triangulation.simplices"] == sum(map(len, t.simplices)) > 0

    maps = enumerate_digraph_maps(line(2), c3)
    spans._count_maps(counts, (), {}, maps)
    assert counts["digraph.maps"] == len(maps)

    classes = homotopy_classes(line(2), c3)
    spans._count_maps_list(counts, (), {}, classes)
    assert counts["homotopy.maps"] == len(classes.maps) == len(maps)
    assert counts["homotopy.edges"] == len(classes.edges) > 0

    fold = DigraphMap(cycle(6), c3, {i: i % 3 for i in range(6)})
    report = check_unique_lifting(fold, *horn_inclusion(2, 1, 1, 0))
    spans._count_squares(counts, (), {}, report)
    assert counts["coverings.squares"] == report["squares"] > 0


@pytest.mark.parametrize("workload", ["enumerate", "eliminate"])
def test_traced_run_is_correct(workload):
    # one untraced and one traced pass; the inputs and spans land in the
    # checkout's git-ignored .perfbench/
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=170, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
    if workload == "eliminate":
        assert report["metrics"]["linalg.elim_calls"]["value"] > 0
