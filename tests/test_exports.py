"""The export table of ``effdim``: each public name is imported on first use.

Also: the CLI's closed-form location commands run without numpy or
``dataclasses``, its closed-form regression commands without the Monte Carlo
module, its nested commands without the Gaussian modules or, at one thread,
the thread pool, the modules that need no regression model do not load
``dimension``, and no module of the package imports a name it never reads.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import effdim
from effdim import cli

from conftest import run_fresh

SUBMODULES = ("approx", "channel", "dimension", "errors", "linalg", "location", "oracle",
              "priors", "sampling", "shrinkage")

FRESH_IMPORT = """
import sys
import effdim
assert "numpy" not in sys.modules
assert not [name for name in sys.modules if name.startswith("effdim.")]
for name in {submodules!r}:
    assert getattr(effdim, name) is sys.modules["effdim." + name], name
"""

# a missing dependency surfaces as itself, not as a missing attribute
WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
import effdim
try:
    hasattr(effdim, "ridge_report")
except ModuleNotFoundError as exc:
    print(exc.name)
"""

# the CLI's import leaves numpy's random package unloaded; sampling loads it
CLI_WITHOUT_RANDOM = """
import sys
import effdim.cli
assert "numpy.random" not in sys.modules
from effdim import GaussianChannel, estimate_channel_mi
channel = GaussianChannel(a=[[1.0, 0.5]], prior_cov=[[1.0, 0.0], [0.0, 2.0]], noise_cov=[[0.5]])
print(estimate_channel_mi(channel, 10_000, seed=3).estimate.hex())
"""


class TestExportTable:
    def test_all_is_the_sorted_table(self):
        assert len(effdim.__all__) == 44
        assert effdim.__all__ == sorted(set(effdim.__all__))

    def test_each_name_is_its_modules_object(self):
        for name in effdim.__all__:
            value = getattr(effdim, name)
            assert value is getattr(sys.modules[value.__module__], name), name
            namespace = {}
            exec(f"from effdim import {name}", namespace)
            assert namespace[name] is value, name

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from effdim import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(effdim.__all__)

    def test_other_names_raise_attribute_error(self):
        assert not hasattr(effdim, "__wrapped__")
        for name in ("spectral_information", "mi_df_sandwich", "loewner_dominates",
                     "dominating_diagonal", "GlobalLocalRegression",
                     "regression_conditional_mi", "conjugate_regression_info"):
            with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
                getattr(effdim, name)

    def test_version_is_a_plain_global(self):
        assert vars(effdim)["__version__"] == "0.1.0"

    def test_dir_lists_public_names_and_submodules(self):
        assert {*effdim.__all__, *SUBMODULES} <= set(dir(effdim))

    def test_fresh_import_loads_no_submodule_and_no_numpy(self):
        run_fresh(FRESH_IMPORT.format(submodules=SUBMODULES))

    def test_missing_numpy_surfaces_as_itself(self):
        assert run_fresh(WITHOUT_NUMPY) == "numpy\n"

    def test_cli_import_leaves_numpy_random_unloaded(self):
        channel = effdim.GaussianChannel(a=[[1.0, 0.5]], prior_cov=[[1.0, 0.0], [0.0, 2.0]],
                                         noise_cov=[[0.5]])
        expected = effdim.estimate_channel_mi(channel, 10_000, seed=3).estimate.hex()
        assert run_fresh(CLI_WITHOUT_RANDOM) == expected + "\n"


# runs the CLI with ``argv`` (none: only imports it), then prints every loaded
# module whose top-level package is one of ``roots``
CLI_RUN = """
import contextlib, io, sys
import effdim.cli
if {argv!r}:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert effdim.cli.main({argv!r}) == 0
    assert out.getvalue()
print(sorted(name for name in sys.modules if name.partition(".")[0] in {roots!r}))
"""


def _loaded(argv, *roots) -> list[str]:
    """The modules under ``roots`` that a fresh process holds after running the CLI."""
    return ast.literal_eval(run_fresh(CLI_RUN.format(argv=argv, roots=roots)))


# the modules that ``location`` and the location ``curve`` load
NUMPY_FREE = ["effdim", "effdim.cli", "effdim.errors", "effdim.location", "effdim.reportio"]

CURVE = ["curve", "--n-grid", "3,10,100", "--d", "2", "--tau2", "1"]

# the names the benchmark's traced replay wraps on cli, and their targets' modules
STAND_INS = {"ridge_report": "dimension", "estimate_channel_mi": "oracle",
             "random_deff_distribution": "shrinkage", "expected_conditional_mi": "shrinkage",
             "chain_decomposition": "shrinkage"}


NUMPY_FREE_RUNS = pytest.mark.parametrize("argv", [
    [],
    ["location", "--d", "3", "--tau2", "1", "--sigma2", "2", "--n", "1000"],
    [*CURVE, "--format", "csv"],
    [*CURVE, "--format", "json"],
    [*CURVE, "--tau2-schedule", "inverse-n"],
], ids=["import", "location", "curve-csv", "curve-json", "curve-inverse-n"])


class TestNumpyFreeCli:
    @NUMPY_FREE_RUNS
    def test_loads_no_numpy(self, argv):
        assert _loaded(argv, "numpy", "effdim") == NUMPY_FREE

    @NUMPY_FREE_RUNS
    def test_loads_no_dataclasses(self, argv):
        # ``dataclasses`` would bring ``inspect``, ``ast``, ``dis`` and ``tokenize``
        assert _loaded(argv, "dataclasses", "inspect") == []

    @pytest.mark.parametrize("name", STAND_INS)
    def test_stand_in_has_its_targets_signature(self, name):
        target = inspect.signature(
            getattr(importlib.import_module(f"effdim.{STAND_INS[name]}"), name))
        # the stand-in is unannotated, so that cli names no numpy-backed type
        bare = target.replace(
            parameters=[p.replace(annotation=p.empty) for p in target.parameters.values()],
            return_annotation=target.empty)
        assert inspect.signature(getattr(cli, name)) == bare


FIXTURES = Path(__file__).resolve().parent / "fixtures"
APPROX = ["approx", "--exact-cov", str(FIXTURES / "post_cov_3x3_seed21.csv"),
          "--approx-cov", str(FIXTURES / "inflated_cov_3x3_seed21.csv"),
          "--prior-cov", str(FIXTURES / "prior_cov_3x3_seed21.csv"), "--n", "100"]


class TestNoDimensionImport:
    @pytest.mark.parametrize("module", ["approx", "oracle", "shrinkage"])
    def test_module_leaves_dimension_unloaded(self, module):
        code = f"import sys, effdim.{module}; print('effdim.dimension' in sys.modules)"
        assert run_fresh(code) == "False\n"

    def test_approx_command_loads_only_its_modules(self):
        assert _loaded(APPROX, "effdim") == [
            "effdim", "effdim.approx", "effdim.cli", "effdim.errors", "effdim.linalg",
            "effdim.location", "effdim.reportio"]


DESIGN = str(FIXTURES / "design_6x4_seed13.csv")


class TestNoSamplingImport:
    # the closed-form regression commands take the BLAS hold from linalg, so
    # they load neither the Monte Carlo module nor its thread pool
    @pytest.mark.parametrize("argv", [
        ["regression", "--design", DESIGN, "--tau2", "1", "--sigma2", "1"],
        [*CURVE[:3], "--tau2", "1", "--design", DESIGN],
    ], ids=["regression", "curve-design"])
    def test_regression_command_loads_no_sampling(self, argv):
        assert _loaded(argv, "effdim", "concurrent") == [
            "effdim", "effdim.channel", "effdim.cli", "effdim.dimension", "effdim.errors",
            "effdim.linalg", "effdim.location", "effdim.reportio"]


NESTED = ["--n", "100", "--samples", "10000", "--inner-samples", "10000", "--seed", "1",
          "--threads", "1"]


class TestNestedCommandsLoadOnlyWhatTheyRun:
    # the nested pass needs neither the Gaussian modules nor, at one thread,
    # the thread pool
    @pytest.mark.parametrize("argv", [
        ["shrinkage", "--prior", "half-cauchy", "--decompose", *NESTED],
        ["oracle", "--kind", "mixture-mi", "--prior", "student-t", "--nu", "3", *NESTED],
    ], ids=["decompose", "mixture-mi"])
    def test_nested_command_loads_no_gaussian_module_or_pool(self, argv):
        assert _loaded(argv, "effdim", "concurrent") == [
            "effdim", "effdim.cli", "effdim.errors", "effdim.linalg", "effdim.location",
            "effdim.oracle", "effdim.priors", "effdim.reportio", "effdim.sampling",
            *(["effdim.shrinkage"] if argv[0] == "shrinkage" else [])]


def _unread_imports(path: Path) -> list[str]:
    """Names a module imports and never reads; a ``# noqa: F401`` line is exempt."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in "\n".join(lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # a stdlib stand-in for pyflakes' F401 over the package sources
    sources = sorted(Path(effdim.__file__).parent.glob("*.py"))
    assert sources
    assert [hit for path in sources for hit in _unread_imports(path)] == []
