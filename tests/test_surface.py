"""The package's public surface: the names llap exports and each module's __all__."""

import importlib
import pkgutil
import types

import pytest

import llap

# What the README example, the benchmark harness and the CLI take from llap;
# everything else is imported from its module.
TOP_LEVEL = {
    "make_grid",
    "sample",
    "default_eta",
    "SymbolSpec",
    "make_kernel",
    "make_nonlinearity",
    "certify",
    "picard_solve",
    "RealField",
    "Schedule",
    "make_sequence",
    "run_sequence",
    "verify_lemmaA2",
    "norms",
    "ContractionCertificate",
    "MemberCertificateError",
    "ConfigError",
    "RunConfig",
    "load_config",
}


def test_top_level_exports_are_what_callers_use():
    public = {
        name
        for name, obj in vars(llap).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert public == TOP_LEVEL


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(llap.__path__)))
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"llap.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
