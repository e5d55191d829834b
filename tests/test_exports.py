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

import numpy as np
import pytest

import ikod
from ikod.attn_analysis import kde_peak, read_trace_csv
from ikod.cli import RunConfig
from ikod.decode import BaseStrategy, DecodePolicy, Prompt, base_select, collaborative_combine
from ikod.decode import ikod_generate, plausibility_mask, prefill
from ikod.kv_merge import build_merge_plan
from ikod.metrics import chair_scores, load_caption_records
from ikod.model import LayeredKvCache, ModelConfig, TinyDecoder, json_fields, read_config
from ikod.model import sinusoidal_positions
from ikod.numerics import Rng, softmax_rows

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


def test_capacity_error_is_the_only_exception_class_the_package_defines():
    """Every other malformed input is a ValueError naming the argument."""
    defined = {
        obj
        for name in MODULES
        for obj in vars(importlib.import_module(f"ikod.{name}")).values()
        if isinstance(obj, type) and issubclass(obj, BaseException)
        and obj.__module__.startswith("ikod.")
    }
    assert defined == {ikod.CapacityError}


def tiny_model() -> TinyDecoder:
    return TinyDecoder(ModelConfig(1, 1, 8, 8, vocab_size=16, max_seq=16))


RAGGED = "got ragged rows or non-numbers"


def replay_into(cache):
    """Prefill.step's replay of a recorded first step of tiny_model into cache."""
    model = tiny_model()
    prefix = prefill(model, Prompt(np.zeros((0, 8)), (1, 2, 3)))
    token = ikod_generate(model, prefix, DecodePolicy(max_new_tokens=1)).tokens[0]
    assert (-1, token) in prefix.step_rows
    return prefix.step(cache, -1, token)


@pytest.mark.parametrize(
    "call, problem",
    [
        (lambda: tiny_model().forward_prompt(tiny_model().new_cache(0), 5),
         "inputs must be a list, got 5"),
        (lambda: tiny_model().forward_prompt(tiny_model().new_cache(0), None),
         "inputs must be a list, got None"),
        (lambda: sinusoidal_positions("a", 2), "length must be an integer, got 'a'"),
        (lambda: chair_scores(None), "records must be an Iterable, got None"),
        (lambda: kde_peak("a"), "h must be a finite number, got 'a'"),
        (lambda: kde_peak(None), "h must be a finite number, got None"),
        (lambda: json_fields(None), "obj must be a dataclass instance, got None"),
        (lambda: LayeredKvCache(1, 1, 0, 1, 0).record(None),
         f"rows must be a (1, 1, 1) array, {RAGGED}"),
        (lambda: collaborative_combine(None, None, 1, None),
         f"p_orig must be a (n) array, {RAGGED}"),
        (lambda: Rng(0).next_u64_block("3"), "n must be an integer, got '3'"),
        (lambda: Rng(0).next_u64_block(True), "n must be an integer, got True"),
        (lambda: softmax_rows("x"), f"m must be a (rows, columns) array, {RAGGED}"),
        (lambda: base_select("x", BaseStrategy(), None), f"scores must be a (n) array, {RAGGED}"),
        (lambda: build_merge_plan("x", 0.5),
         f"scores must be a (n_layers, text_len) array, {RAGGED}"),
        (lambda: tiny_model().forward_full("x"), f"embeddings must be a (n, 8) array, {RAGGED}"),
        (lambda: tiny_model().content_embedding("a"), f"inp must be a (8) array, {RAGGED}"),
        (lambda: prefill(tiny_model(), Prompt("x", (1, 2, 3))),
         f"image_embeddings must be a (n, 8) array, {RAGGED}"),
        # Finite embeddings whose attention scores overflow.
        (lambda: tiny_model().forward_full(np.full((1, 8), 1e308)),
         "matrix entries must be finite"),
        (lambda: softmax_rows(np.zeros((2, 0))),
         "m must have at least one column, got shape (2, 0)"),
        (lambda: plausibility_mask(["0.5", "0.2"], 0.1), f"p_orig must be a (n) array, {RAGGED}"),
        (lambda: softmax_rows(np.array([["1", "2"]])),
         f"m must be a (rows, columns) array, {RAGGED}"),
        (lambda: plausibility_mask(np.array(["0.5", "0.2"], dtype=object), 0.1),
         f"p_orig must be a (n) array, {RAGGED}"),
        (lambda: plausibility_mask([0.5 + 0j, 0.2], 0.1), f"p_orig must be a (n) array, {RAGGED}"),
        (lambda: tiny_model().forward_step(LayeredKvCache(2, 1, 8, 16, 0), 1),
         "cache must be of the model's shape (1, 1, 16, 8), got (2, 1, 16, 8)"),
        (lambda: tiny_model().forward_step(LayeredKvCache(1, 2, 4, 16, 0), 1),
         "cache must be of the model's shape (1, 1, 16, 8), got (1, 2, 16, 4)"),
        (lambda: tiny_model().forward_prompt(LayeredKvCache(1, 1, 5, 16, 0), [1]),
         "cache must be of the model's shape (1, 1, 16, 8), got (1, 1, 16, 5)"),
        (lambda: replay_into(LayeredKvCache(2, 1, 8, 16, 0)),
         "cache must be of the model's shape (1, 1, 16, 8), got (2, 1, 16, 8)"),
        # open takes an int (and so a bool) as a file descriptor: 0 is stdin.
        *(
            (lambda reader=reader, path=path: reader(path), f"path must be a file path, got {path!r}")
            for reader in (load_caption_records, read_trace_csv)
            for path in (None, False, 0, 3.5)
        ),
    ],
    ids=[
        "forward_prompt-int", "forward_prompt-None", "sinusoidal_positions-str",
        "chair_scores-None", "kde_peak-str", "kde_peak-None", "json_fields-None", "record-None",
        "collaborative_combine-None", "next_u64_block-str", "next_u64_block-bool",
        "softmax_rows-str", "base_select-str", "build_merge_plan-str", "forward_full-str",
        "content_embedding-str", "prefill-str-images", "forward_full-overflowing-scores",
        "softmax_rows-no-columns", "plausibility_mask-numeric-strings", "softmax_rows-str-array",
        "plausibility_mask-object-strings", "plausibility_mask-complex",
        "forward_step-cache-layers", "forward_step-cache-heads", "forward_prompt-cache-d_head",
        "prefill_step-cache-layers",
        *(
            f"{reader}-{path}"
            for reader in ("load_caption_records", "read_trace_csv")
            for path in ("None", "False", "0", "3.5")
        ),
    ],
)
def test_a_malformed_argument_is_a_value_error_naming_it(call, problem):
    """Calls that raised TypeError or AttributeError, returned a value, or
    passed numpy's message through, naming no argument."""
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        call()
