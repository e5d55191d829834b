"""Every name the package exports resolves, so a deleted symbol cannot linger
in an `__all__` list or in the package's own imports; every exported name is
used by the package or documented; and the README's library example and
decode config still run and read."""

import ast
import functools
import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

import ikod
from ikod.cli import RunConfig
from ikod.model import read_config

MODULES = sorted(m.name for m in pkgutil.iter_modules(ikod.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"ikod.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_resolve_to_the_module_objects():
    tree = ast.parse(Path(ikod.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"ikod.{node.module}")
        for alias in node.names:
            assert getattr(ikod, alias.asname or alias.name) is getattr(module, alias.name)


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading: str, language: str) -> str:
    """The first ```language block after the README's heading line."""
    text = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return text.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs(capsys):
    exec(compile(readme_block("## Library use", "python"), str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_decode_config_is_a_run_config():
    config = read_config(RunConfig, json.loads(readme_block("### decode", "json")), "")
    assert config.model.d_model % config.model.n_heads == 0 and config.prompt_tokens


SRC = Path(ikod.__file__).resolve().parent


@functools.cache
def names_read() -> dict[tuple[str, str | None], frozenset[str]]:
    """The names each top-level statement of the package reads, keyed by its
    module and the name it defines (None for other statements). The
    package's re-exports in `__init__.py` are not reads."""
    read = {}
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            key = (path.stem, getattr(stmt, "name", None))
            read[key] = read.get(key, frozenset()) | {
                node.id for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
    return read


@pytest.mark.parametrize("name", MODULES)
def test_every_export_is_used_or_documented(name):
    """A name in `__all__` is read by package code outside its own definition
    or named in the README, so an export that only tests call cannot linger."""
    readme = README.read_text(encoding="utf-8")
    exported = getattr(importlib.import_module(f"ikod.{name}"), "__all__", [])
    unused = [
        n for n in exported
        if not any(n in names for key, names in names_read().items() if key != (name, n))
        and not re.search(rf"\b{re.escape(n)}\b", readme)
    ]
    assert unused == []
