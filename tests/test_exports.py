"""The export table of ``effdim``: each public name is imported on first use."""

import sys

import pytest

import effdim

from conftest import run_fresh

SUBMODULES = ("approx", "channel", "dimension", "errors", "linalg", "oracle", "priors",
              "sampling", "shrinkage")

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


class TestExportTable:
    def test_all_is_the_sorted_table(self):
        assert len(effdim.__all__) == 50
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
        with pytest.raises(AttributeError, match="no attribute 'spectral_information'"):
            getattr(effdim, "spectral_information")

    def test_version_is_a_plain_global(self):
        assert vars(effdim)["__version__"] == "0.1.0"

    def test_dir_lists_public_names_and_submodules(self):
        assert {*effdim.__all__, *SUBMODULES} <= set(dir(effdim))

    def test_fresh_import_loads_no_submodule_and_no_numpy(self):
        run_fresh(FRESH_IMPORT.format(submodules=SUBMODULES))

    def test_missing_numpy_surfaces_as_itself(self):
        assert run_fresh(WITHOUT_NUMPY) == "numpy\n"
