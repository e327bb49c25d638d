"""Meta-tests: documentation coverage and API hygiene.

A production library promises doc comments on every public item and a
coherent export surface; these tests enforce both mechanically.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import repro
import repro.sim

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.rsplit(".", 1)[-1].startswith("_")
]


def _public_members(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.getmodule(obj) is not module:
            continue  # re-exports documented at their definition site
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield name, obj


class TestDocstrings:
    def test_package_docstring(self):
        assert repro.__doc__ and "LDPRecover" in repro.__doc__

    @pytest.mark.parametrize("module_name", MODULES)
    def test_module_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    @pytest.mark.parametrize("module_name", MODULES)
    def test_public_members_documented(self, module_name):
        module = importlib.import_module(module_name)
        undocumented = [
            name for name, obj in _public_members(module) if not inspect.getdoc(obj)
        ]
        assert not undocumented, f"{module_name}: undocumented {undocumented}"

    @pytest.mark.parametrize("module_name", MODULES)
    def test_public_methods_documented(self, module_name):
        module = importlib.import_module(module_name)
        missing: list[str] = []
        for cls_name, cls in _public_members(module):
            if not inspect.isclass(cls):
                continue
            for meth_name, meth in vars(cls).items():
                if meth_name.startswith("_"):
                    continue
                if inspect.isfunction(meth) and not inspect.getdoc(
                    getattr(cls, meth_name)
                ):
                    missing.append(f"{cls_name}.{meth_name}")
        assert not missing, f"{module_name}: undocumented methods {missing}"


SIM_MODULES = [name for name in MODULES if name.startswith("repro.sim")]


class TestSimApiDocs:
    """The public sim API (the layer users script against) is held to a
    stricter bar: every callable documented, every parameter mentioned —
    notably the engine/cache knobs ``workers``, ``chunk_users`` and
    ``cache`` added by recent PRs."""

    def test_sim_exports_have_docstrings(self):
        undocumented = [
            name
            for name in repro.sim.__all__
            if callable(getattr(repro.sim, name))
            and not (inspect.getdoc(getattr(repro.sim, name)) or "").strip()
        ]
        assert not undocumented, f"repro.sim exports lack docstrings: {undocumented}"

    @pytest.mark.parametrize("module_name", SIM_MODULES)
    def test_public_function_parameters_documented(self, module_name):
        module = importlib.import_module(module_name)
        missing: list[str] = []
        for fn_name, fn in _public_members(module):
            if not inspect.isfunction(fn):
                continue
            doc = inspect.getdoc(fn) or ""
            for param in inspect.signature(fn).parameters:
                if param in ("self", "cls"):
                    continue
                if not re.search(rf"\b{re.escape(param)}\b", doc):
                    missing.append(f"{fn_name}({param})")
        assert not missing, f"{module_name}: parameters undocumented: {missing}"


class TestExports:
    def test_all_lists_resolve(self):
        for module_name in MODULES:
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"

    def test_top_level_all_sorted_groups(self):
        # Every name in repro.__all__ must be importable from repro.
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None

    def test_no_private_leaks_in_all(self):
        for module_name in MODULES:
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert not name.startswith("_"), f"{module_name} exports private {name}"


class TestDocsSkeleton:
    """The rendered documentation under docs/ stays in sync with the code."""

    EXHIBITS = REPO_ROOT / "docs" / "exhibits.md"

    def test_exhibits_md_names_every_exhibit(self):
        text = self.EXHIBITS.read_text(encoding="utf-8")
        for exhibit in [f"Figure {i}" for i in range(3, 11)] + ["Table I"]:
            assert exhibit in text, f"docs/exhibits.md misses {exhibit}"

    def test_exhibits_md_names_every_generator_function(self):
        text = self.EXHIBITS.read_text(encoding="utf-8")
        from repro.sim import figures

        generators = [
            name
            for name, obj in vars(figures).items()
            if inspect.isfunction(obj) and name.endswith("_rows")
        ]
        assert generators, "no generator functions found"
        for name in generators:
            assert name in text, f"docs/exhibits.md misses {name}"

    def test_exhibits_md_names_every_cli_figure(self):
        text = self.EXHIBITS.read_text(encoding="utf-8")
        from repro.sim.shard import SweepConfig

        for figure in SweepConfig.exhibit_names():
            assert f"--figure {figure}" in text or f"--exhibit {figure}" in text, (
                f"docs/exhibits.md misses the CLI invocation for {figure}"
            )

    def test_exhibits_md_names_every_scenario_generator(self):
        text = self.EXHIBITS.read_text(encoding="utf-8")
        from repro.sim.scenarios import SCENARIOS

        for name, exhibit in SCENARIOS.items():
            assert exhibit.cells.__name__ in text, (
                f"docs/exhibits.md misses the generator of scenario {name!r}"
            )

    def test_api_pages_cover_required_packages(self):
        api = REPO_ROOT / "docs" / "api"
        for page, module in [
            ("core.rst", "repro.core"),
            ("protocols.rst", "repro.protocols"),
            ("attacks.rst", "repro.attacks"),
            ("sim.rst", "repro.sim.cache"),
            ("sim.rst", "repro.sim.scenarios"),
            ("kv.rst", "repro.kv"),
        ]:
            text = (api / page).read_text(encoding="utf-8")
            assert f".. automodule:: {module}" in text, f"{page} misses {module}"

    def test_every_subpackage_has_an_autodoc_page(self):
        """Each ``repro`` subpackage must own a docs/api page that autodocs
        it (and that page must be reachable from the api toctree), so the
        next subpackage someone adds without docs fails CI instead of
        silently missing from the rendered API reference."""
        api = REPO_ROOT / "docs" / "api"
        toctree = (api / "index.rst").read_text(encoding="utf-8")
        subpackages = [
            name
            for _, name, is_pkg in pkgutil.iter_modules(repro.__path__, prefix="repro.")
            if is_pkg
        ]
        assert subpackages, "no repro subpackages found"
        for module_name in subpackages:
            short = module_name.rsplit(".", 1)[-1]
            page = api / f"{short}.rst"
            assert page.is_file(), f"docs/api/{short}.rst missing for {module_name}"
            text = page.read_text(encoding="utf-8")
            assert f".. automodule:: {module_name}" in text, (
                f"docs/api/{short}.rst does not autodoc {module_name}"
            )
            assert re.search(rf"^\s*{short}\s*$", toctree, re.MULTILINE), (
                f"docs/api/index.rst toctree misses {short}"
            )

    def test_sphinx_build_is_warning_clean(self, tmp_path):
        pytest.importorskip("sphinx")
        pytest.importorskip("myst_parser")
        result = subprocess.run(
            [
                sys.executable, "-m", "sphinx", "-b", "html", "-W", "-q",
                str(REPO_ROOT / "docs"), str(tmp_path / "html"),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert result.returncode == 0, f"sphinx -W failed:\n{result.stderr}"


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        from repro import exceptions

        for name, obj in vars(exceptions).items():
            if inspect.isclass(obj) and issubclass(obj, Exception):
                if obj is not exceptions.ReproError:
                    if obj.__module__ == "repro.exceptions":
                        assert issubclass(obj, exceptions.ReproError), name

    def test_invalid_parameter_is_value_error(self):
        from repro.exceptions import InvalidParameterError

        assert issubclass(InvalidParameterError, ValueError)

    def test_catchall_works(self):
        from repro.exceptions import ReproError
        from repro.protocols import GRR

        with pytest.raises(ReproError):
            GRR(epsilon=-1, domain_size=10)
