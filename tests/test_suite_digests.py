"""Byte identity as a test: every suite verdict body and CLI output of the
grid in `tools/suite_digests.py` digests as recorded in
`tests/suite_digests.txt`.

Digests depend on numpy and the BLAS/LAPACK kernels it runs (a DYNAMIC_ARCH
OpenBLAS picks them per CPU), so the file's header records that
environment. Where this environment differs, the test skips and names the
fields that differ; it never passes without comparing. After a deliberate
body change, rewrite the file with

    PYTHONPATH=src python3 tools/suite_digests.py --record > tests/suite_digests.txt

and the diff shows which lines moved.
"""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = os.path.join(ROOT, "tests", "suite_digests.txt")
SHOWN = 10  # moved lines named in a failure


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "suite_digests", os.path.join(ROOT, "tools", "suite_digests.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def moved(expected: list, got: list) -> list:
    """`line <n>: expected <a> got <b>` for each line that differs, in order,
    numbered as in the file; a missing line reads as `<none>`."""
    out = []
    for i in range(max(len(expected), len(got))):
        a = expected[i] if i < len(expected) else "<none>"
        b = got[i] if i < len(got) else "<none>"
        if a != b:
            out.append(f"line {i + 1}: expected {a!r} got {b!r}")
    return out


def test_moved_names_each_differing_line():
    assert moved(["a", "b"], ["a", "b"]) == []
    assert moved(["a", "b", "c"], ["a", "x"]) == [
        "line 2: expected 'b' got 'x'", "line 3: expected 'c' got '<none>'"]


def test_digests_match_the_recorded_file():
    tool = load_tool()
    with open(EXPECTED) as fh:
        recorded = fh.read().splitlines()
    head = [line for line in recorded if line.startswith("# ")]
    was = dict(line[2:].split(": ", 1) for line in head)
    differ = [f"{k} (recorded {was.get(k)!r}, here {v!r})"
              for k, v in tool.environment().items() if was.get(k) != v]
    if differ:
        pytest.skip("digests were recorded in another environment; differs: " + "; ".join(differ))
    lines, code = tool.run()
    changes = moved(recorded, head + lines)
    assert not changes, (f"{len(changes)} digest lines moved; first ones:\n"
                         + "\n".join(changes[:SHOWN]))
    assert code == 0
