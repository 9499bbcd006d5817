"""The package namespace: public names and submodules load on first lookup."""

import importlib
import json
import subprocess
import sys

import pytest

import negdsd

from conftest import child_env

PUBLIC = """
DEFAULT_C_LIST DecisionOutcome DsdResult ExclusionQuery MultilayerGraph ObjectiveParams
PeelOrder PeelScoring RiskReport SearchTrace SignedEdge SignedGraph TIE_TOLERANCE UncertainEdge
UncertainGraph apply_exclusion bernoulli_graph bernoulli_moments best_prefix
binary_search_objective brute_force build_multilayer_graph build_signed_graph build_uncertain_graph
c_sweep dsd_decision exact_dsd gen_bad_peeling gen_shift_failure gen_two_component hard_w
induced_weights layer_count layer_density layer_report objective_f objective_upper_bound peel_order
risk_profile shift_baseline tilde_weights tmdb_edge uncertain_to_signed
""".split()

SUBMODULES = ["cli", "core", "errors", "exact", "flow", "generators", "io", "multilayer", "peeling", "uncertain"]


def test_all_is_the_public_api():
    assert negdsd.__all__ == PUBLIC
    assert negdsd.__version__ == "0.1.0"


@pytest.mark.parametrize("name", PUBLIC)
def test_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"negdsd.{negdsd._HOME[name]}")
    assert getattr(negdsd, name) is getattr(home, name)
    if hasattr(getattr(home, name), "__module__"):
        assert getattr(home, name).__module__ == home.__name__


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from negdsd import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == negdsd.__all__
    assert all(namespace[name] is getattr(negdsd, name) for name in namespace)


def test_dir_lists_the_public_names_and_submodules():
    assert set(PUBLIC + SUBMODULES) <= set(dir(negdsd))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'negdsd' has no attribute 'no_such_name'$"):
        negdsd.no_such_name
    assert not hasattr(negdsd, "no_such_name")
    with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
        exec("from negdsd import no_such_name", {})


def test_fresh_import_loads_nothing_until_looked_up():
    probe = """
import json, sys
import negdsd
def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "negdsd")
bare = loaded()
solver = negdsd.exact.exact_dsd.__name__
after_exact = loaded()
modules = {name: getattr(negdsd, name).__name__ for name in %r}
print(json.dumps({"bare": bare, "solver": solver, "after_exact": after_exact, "modules": modules}))
""" % SUBMODULES
    child = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True, check=True)
    report = json.loads(child.stdout)
    assert report["bare"] == ["negdsd"]
    assert report["solver"] == "exact_dsd"
    assert "negdsd.generators" not in report["after_exact"] and "negdsd.cli" not in report["after_exact"]
    assert report["modules"] == {name: f"negdsd.{name}" for name in SUBMODULES}
