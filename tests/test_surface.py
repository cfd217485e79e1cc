"""The package's public surface: the names llap exports, each module's __all__
and which modules import which."""

import ast
import importlib
import pkgutil
import re
import types
from pathlib import Path

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


def test_readme_names_the_top_level_exports():
    # README's Library section: the example's imports plus the names of the
    # "holds N names" sentence are the top-level exports, and N counts them.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    library = readme.split("## Library", 1)[1]
    example = library.split("```python", 1)[1].split("```", 1)[0]
    imported = {
        alias.name
        for node in ast.walk(ast.parse(example))
        if isinstance(node, ast.ImportFrom) and node.module == "llap"
        for alias in node.names
    }
    count, sentence = re.search(r"holds (\d+) names: (.*?)\.\s", library, re.S).groups()
    listed = set(re.findall(r"`([A-Za-z_]\w*)`", sentence))
    assert imported | listed == TOP_LEVEL
    assert int(count) == len(TOP_LEVEL)


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(llap.__path__)))
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"llap.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _relative_imports(module: str) -> set[str]:
    """The llap modules that llap.<module> imports, from its source."""
    tree = ast.parse((Path(llap.__path__[0]) / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                imported |= {alias.name for alias in node.names}  # from . import x
            else:
                imported.add(node.module.split(".")[0])
    return imported


def test_layering():
    # The library below the CLI takes built objects, not configs: the
    # config layer and the CLI sit on top of it.
    modules = ["__init__", *(m.name for m in pkgutil.iter_modules(llap.__path__))]
    imports = {name: _relative_imports(name) for name in modules}
    assert imports["sequence"] >= {"solver", "kernels"}  # the parse finds imports
    for module in ("checks", "sequence"):
        assert imports[module] & {"config", "cli"} == set(), module
    assert [m for m, names in imports.items() if "cli" in names] == []
