"""CLI stdout, byte for byte, on the benchmark's seed-0 inputs.

The 21 commands are the benchmark's job argvs for seed 0 of both
workloads, on the files `perfbench/workloads.py` writes (the module is
loaded from its file and only read), and four commands that need no
input file.  Each command runs through `dgh.cli.main`; its stdout is
pinned by its SHA-256.  A change that alters any report, by a single
byte, fails here.
"""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

import pytest

from dgh.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

#: command -> SHA-256 of its stdout: a benchmark job by its id, or an argv
EXPECTED = {
    "nerve-c3-m2-k3": "602278bb1d75e9f991ac0400485c23939449dbf5c36036ea68d531044908e0d1",
    "nerve-fan-m2-k3": "0ede0b47aacd4cf627864bdd57d9ebfcb6040d2e2d26c617c2a85dd5c8044585",
    "antower-c3-r12": "47d1c3f83086d1dcd85dba14d3a7c3246d513d97ae3d73a96e19633bd28f6943",
    "antower-c4-r12": "bc06fda12cffa7947d5a00d08c25b0bd03c747f9433b7e75ccca1789fb8f4e73",
    "classes-i8-c3": "f70e30674dd927b1a1db7c633d975943272bb9875d027de632db65503a61178c",
    "lifting-c6-c3-side3-h20": "102a82f0c06e0abe22a46d2f4decc6c18f37b5cab38898e7bab9288f2385e281",
    "lifting-c6-c3-side3-h11": "102a82f0c06e0abe22a46d2f4decc6c18f37b5cab38898e7bab9288f2385e281",
    "homology-boundary44-m2-k2": "c9dd354eae2706513451f34109c77477f7aec0148df3f458fc2f390821dacc09",
    "homology-grid44-m1-k3": "c0230e79bf15d519252d267a53d1edc3474c85be686371e028ec859211e93b22",
    "homology-c3-m1-k3-tri": "36d8905dc7d7d092b00485551f501754f88458675b0f08d4885247d40c27bd7a",
    "homology-square-m1-k3-tri": "7b36d6d55f2227997e9e34b2b6d5faabc89693e07cd3146101d41b863c85df92",
    "homology-o-m1-k2-tri": "5f8db870ba2a8d4baaa880b96ac7fb0b34bf85336f1365c7a979c395f20ab819",
    "compare-c6-c3-m2": "65af83f1e7a0eae78506b5699920a6656cf6d4cb696541603238cf45aff850d1",
    "compare-c9-c3-m2": "dece9d942774c72f06d53406a5aafc6563dc1e637bd0a0f851c071f4055e35b8",
    "compare-c12-c3-m2": "b2dc33747affb8c8f82cf8a18a8d2a8b3b14e5ef8174e19f1b9f65b2f5ff0e3d",
    "compare-square-id-m2": "cbb425dae0e1676bbd71cff7ff04cbb65703005e075d04512517a1b5608a2420",
    "compare-boundary44-o-m1": "ee7022b10af3bea672b54f68478125481056ceb0e40ca5256690fd1b5116892a",
    "verify paper --suite all": "5c1af293f280c7c1c734594d3d77d8cab049d398fb991af9118c3c5ba02c05fa",
    "check rho --m 2 --n 3": "602e5ba4afb07499933060899d70ddf7961f5917d00c4196c3a5a7b238586c8e",
    "check kan --m 1 --n 2": "8d6723fdba43d76938f6968213897c6837f2d11a697e81175e1cb3534bcb5873",
    "--format text classes-i8-c3": "4800b76b0789b8569e6594766729756aa157e811155fb46572c7e967e1ebbd5f",
}


@pytest.fixture(scope="module")
def stdout(tmp_path_factory):
    """command -> (exit code, stdout), each command run once."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    directory = tmp_path_factory.mktemp("inputs")
    argvs = {
        job["id"]: job["argv"]
        for workload in ("enumerate", "eliminate")
        for job in workloads.write_inputs(workload, 0, str(directory / workload))
    }
    argvs["--format text classes-i8-c3"] = ["--format", "text", *argvs["classes-i8-c3"]]
    runs = {}

    def run(command):
        if command not in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argvs.get(command) or command.split())
            runs[command] = code, out.getvalue()
        return runs[command]

    return run


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command", EXPECTED)
def test_stdout_is_pinned(stdout, command):
    code, out = stdout(command)
    assert code == 0
    assert _sha256(out) == EXPECTED[command]
