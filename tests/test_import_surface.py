"""What importing cstarlab loads. The package root and the CLI parser load no
numpy, each command loads only the modules it uses, and every name of the
package root resolves on first access. Each check starts a fresh
interpreter, since this process has loaded every module already."""

import json
import os
import subprocess
import sys

import pytest

import cstarlab
from cstarlab.cli import main

SRC = os.path.dirname(os.path.dirname(cstarlab.__file__))

# every name the package root exported while it imported each submodule
# eagerly, by defining submodule; a star import bound these names and the
# submodules below
EXPORTS = {
    **dict.fromkeys([
        "CstarlabError", "DimensionMismatchError", "DomainError", "HermitianDefectError",
        "InputError", "NonPositiveError", "NumericalError", "UnboundedIntervalError",
    ], "errors"),
    **dict.fromkeys([
        "DEFAULT_TOL", "HermitianMatrix", "LoewnerResult", "SpectralDecomposition",
        "SpectrumInterval", "ToleranceConfig", "apply_function", "eig_hermitian",
        "geometric_mean", "haar_unitary", "loewner_leq", "sample_hermitian",
    ], "hermitian"),
    **dict.fromkeys([
        "ScalarFunctionSpec", "catalog", "constant_function", "parse_function",
        "polynomial_function", "power_function",
    ], "functions"),
    **dict.fromkeys([
        "CoefficientTuple", "KrausMap", "TupleValidation", "UnitalMapFamily",
        "apply_combination", "apply_log_combination", "sample_map_family", "sample_tuple",
        "validate_tuple",
    ], "combinations"),
    **dict.fromkeys([
        "Counterexample", "TestVerdict", "epigraph_closure_test", "harmonic_sum_closure_test",
        "interval_set_falsifier", "jensen_test", "log_epigraph_closure_test",
        "log_harmonic_jensen_test", "log_midpoint_test", "midpoint_convexity_test",
        "sublevel_family_test",
    ], "convexity"),
    **dict.fromkeys([
        "FeasibilityResult", "HullCertificate", "HullWitness", "OracleResult", "WitnessCheck",
        "hull_membership", "lch_membership", "sample_hull_member", "spectral_interval_oracle",
        "two_point_witness", "witness_to_tuple",
    ], "hull"),
    **dict.fromkeys(["RecheckResult", "recheck_payload"], "recheck"),
}
STAR_SUBMODULES = ["combinations", "convexity", "errors", "functions", "hermitian", "hull",
                   "io", "recheck"]

# `cstarlab --help` as printed at 80 columns before the package root and
# the CLI loaded their modules on demand
HELP = """\
usage: cstarlab [-h]
                {classify,jensen,epigraph,log-epigraph,interval-set,hull,lch,verify,report}
                ...

Operator-convexity laboratory: Jensen-type inequality falsifiers, C*-convexity
suites, and constructive C*-convex hull membership for Hermitian matrices.

positional arguments:
  {classify,jensen,epigraph,log-epigraph,interval-set,hull,lch,verify,report}
    classify            run the convexity suites for one function
    jensen              Jensen operator inequality falsifier
    epigraph            operator epigraph closure test
    log-epigraph        log-convex epigraph closure test
    interval-set        falsify C*-convexity of the order interval [0, A]
    hull                C*-convex hull membership, witnesses, sampling
    lch                 C*-log-convex hull membership
    verify              re-verify counterexample payloads from a report
    report              print a human-readable report summary

options:
  -h, --help            show this help message and exit
"""

# prints the cstarlab, numpy and scipy modules loaded once the snippet in
# argv[1] has run, as a JSON list
LOADED = """
import json, sys
exec(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in
                        ("cstarlab", "numpy", "scipy"))))
"""


def fresh(script: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_by(snippet: str) -> set:
    return set(json.loads(fresh(LOADED, snippet).splitlines()[-1]))


def test_building_the_parser_imports_no_numpy():
    # `recheck_payload` is a patch point of `verify` from import on
    assert loaded_by("import cstarlab.cli; cstarlab.cli.build_parser(); "
                     "assert callable(cstarlab.cli.recheck_payload)") == {
        "cstarlab", "cstarlab.cli", "cstarlab.errors"}
    assert loaded_by("import cstarlab; dir(cstarlab)") == {"cstarlab"}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("surface")
    (d / "T.json").write_text('{"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [3, 0]]]}')
    (d / "X.json").write_text('{"dim": 2, "entries": [[[2, 0], [0, 0]], [[0, 0], [2, 0]]]}')
    assert main(["jensen", "--function", "t^4", "--dims", "2", "--samples", "30",
                 "--seed", "7", "--out", str(d / "r.json")]) == 1
    return d


SUITE = ["--function", "t^4", "--dims", "2", "--samples", "20", "--seed", "7"]


@pytest.mark.parametrize("argv, code, absent", [
    (["hull", "member", "--t", "T.json", "--x", "X.json"], 0, {"convexity", "recheck"}),
    (["lch", "member", "--t", "T.json", "--x", "X.json"], 0, {"convexity", "recheck"}),
    (["verify", "--report", "r.json"], 0, {"convexity"}),
    (["report", "--in", "r.json"], 0, {"convexity", "recheck"}),
    (["jensen", *SUITE], 1, {"recheck"}),
    (["jensen", "--mode", "map-family", *SUITE], 0, {"recheck"}),
    (["classify", *SUITE], 1, {"recheck"}),
    (["epigraph", *SUITE], 0, {"recheck"}),
])
def test_each_command_loads_only_its_modules(files, argv, code, absent):
    argv = [str(files / a) if a.endswith(".json") else a for a in argv]
    loaded = loaded_by(f"import cstarlab.cli; assert cstarlab.cli.main({argv!r}) == {code}")
    assert not {f"cstarlab.{name}" for name in absent} & loaded
    assert {"cstarlab.io", "cstarlab.hermitian", "numpy"} <= loaded
    assert ("scipy" in loaded) == (argv[0] == "verify")


def test_report_loads_no_engine_module(files):
    argv = ["report", "--in", str(files / "r.json")]
    loaded = loaded_by(f"import cstarlab.cli; assert cstarlab.cli.main({argv!r}) == 0")
    assert {m for m in loaded if m.startswith("cstarlab")} == {
        "cstarlab", "cstarlab.cli", "cstarlab.errors", "cstarlab.io", "cstarlab.hermitian"}


# each way checks that a name resolves to the object its submodule defines
RESOLVE = """
import importlib, json, sys
import cstarlab
exports, submodules, way = json.loads(sys.argv[1]), json.loads(sys.argv[2]), sys.argv[3]
ns = {}
if way == "star":
    exec("from cstarlab import *", ns)
    ns.pop("__builtins__")
    assert sorted(ns) == sorted([*exports, *submodules]), sorted(ns)
for name in [*exports, *submodules, "cli"]:
    if way == "attribute":
        value = getattr(cstarlab, name)
    elif way == "from":
        exec(f"from cstarlab import {name}", ns)
        value = ns[name]
    elif name == "cli":
        continue
    else:
        value = ns[name]
    if name in exports:
        assert value is getattr(importlib.import_module("cstarlab." + exports[name]), name), name
    else:
        assert value is sys.modules["cstarlab." + name], name
print("resolved")
"""


@pytest.mark.parametrize("way", ["attribute", "from", "star"])
def test_every_name_of_the_package_root_resolves(way):
    out = fresh(RESOLVE, json.dumps(EXPORTS), json.dumps(STAR_SUBMODULES), way)
    assert out.splitlines()[-1] == "resolved"


def test_package_root_lists_its_names():
    assert sorted(cstarlab.__all__) == sorted([*EXPORTS, *STAR_SUBMODULES])
    assert set(cstarlab.__all__) | {"cli", "__version__"} <= set(dir(cstarlab))
    assert cstarlab.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cstarlab.no_such_name
    with pytest.raises(ImportError):
        exec("from cstarlab import no_such_name", {})


def test_help_is_unchanged():
    proc = subprocess.run(
        [sys.executable, "-m", "cstarlab.cli", "--help"],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=SRC, COLUMNS="80"),
    )
    assert proc.returncode == 0
    assert proc.stdout == HELP.encode()
