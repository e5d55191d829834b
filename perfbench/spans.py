"""Outside-in span tracing for the traced benchmark run.

Each entry of SPANS names a public function or method of one ikod layer. While
a Tracer is installed, every name under which ikod modules look that callable
up is replaced by a wrapper that records a span (calls, inclusive time, self
time). Nothing under src/ changes, and removing the tracer restores the
original objects. A target that no longer exists is reported as absent.

Self time is a span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (span name, module, attribute path inside the module)
SPANS = [
    ("numerics.softmax_rows", "ikod.numerics", "softmax_rows"),
    ("model.build", "ikod.model", "TinyDecoder.__init__"),
    ("model.image_embeddings", "ikod.model", "make_image_embeddings"),
    ("model.forward_step", "ikod.model", "TinyDecoder.forward_step"),
    ("model.forward_query", "ikod.model", "TinyDecoder.forward_query"),
    ("kv_merge.layer_scores", "ikod.kv_merge", "layer_scores"),
    ("kv_merge.build_merge_plan", "ikod.kv_merge", "build_merge_plan"),
    ("kv_merge.merge_cache", "ikod.kv_merge", "merge_cache"),
    ("attn_analysis.from_trace", "ikod.attn_analysis", "ImageAttentionStat.from_trace"),
    ("attn_analysis.trace_image_attention", "ikod.attn_analysis", "trace_image_attention"),
    ("decode.ikod_generate", "ikod.decode", "ikod_generate"),
    ("decode.base_select", "ikod.decode", "base_select"),
    ("decode.combine", "ikod.decode", "collaborative_combine"),
    ("decode.combine", "ikod.decode", "plausibility_mask"),
    ("metrics.chair_scores", "ikod.metrics", "chair_scores"),
    ("cli.main", "ikod.cli", "main"),
]


def _resolve(module_name: str, path: str):
    """(owner, attribute, raw object) or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


class _Generation:
    """State of one ikod_generate call, for the derived decode metrics."""

    __slots__ = ("mode", "picks", "prefill_s")

    def __init__(self, mode: str):
        self.mode = mode
        self.picks: list[float] = []
        self.prefill_s = 0.0


class Tracer:
    """Span recorder; install() wraps every target, remove() undoes it."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.absent: list[str] = []
        self.prefill_s = 0.0
        self.step_ms: list[float] = []
        self.picks = 0
        self.picks_changed = 0
        self.merged_len = 0
        self.cache_len = 0
        self._stack: list[list[float]] = []
        self._generation: _Generation | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.absent = []
        for name, module_name, path in SPANS:
            target = _resolve(module_name, path)
            if target is None:
                self.absent.append(f"{name} ({module_name}.{path})")
                continue
            owner, attr, raw = target
            if isinstance(owner, type):
                self._patch_method(name, owner, attr, raw)
            else:
                self._patch_function(name, raw)

    def remove(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def _patch_function(self, name: str, fn) -> None:
        """Replace fn under every name an ikod module binds it to."""
        wrapper = self._wrap(name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ikod" or mod_name.startswith("ikod.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, name: str, cls: type, attr: str, raw) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self._wrap(name, raw.__func__))
        else:
            replacement = self._wrap(name, raw)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        enter = getattr(self, "_enter_" + name.replace(".", "_"), None)
        leave = getattr(self, "_leave_" + name.replace(".", "_"), None)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = enter(args, kwargs) if enter else None
            frame = [0.0]
            stack.append(frame)
            result = None  # stays None when fn raises
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[0]
                self.durations[name].append(duration)
                if leave:
                    leave(state, args, kwargs, result, duration)

        return wrapper

    def _enter_decode_ikod_generate(self, args, kwargs):
        policy = kwargs["policy"] if "policy" in kwargs else args[2]
        outer = self._generation
        self._generation = _Generation(getattr(policy.mode, "value", str(policy.mode)))
        return outer

    def _leave_decode_ikod_generate(self, outer, args, kwargs, result, duration):
        gen = self._generation
        self._generation = outer
        self.prefill_s += gen.prefill_s
        if result is None or gen.mode == "baseline":
            return
        self.step_ms.extend(1e3 * (b - a) for a, b in zip(gen.picks, gen.picks[1:]))
        for step in result.steps:
            self.picks += 1
            self.picks_changed += int(step.chosen != int(np.argmax(step.p_orig)))

    def _leave_decode_base_select(self, state, args, kwargs, result, duration):
        if self._generation is not None:
            self._generation.picks.append(perf_counter())

    def _leave_model_forward_step(self, state, args, kwargs, result, duration):
        gen = self._generation
        if gen is not None and not gen.picks:
            gen.prefill_s += duration

    def _leave_kv_merge_merge_cache(self, state, args, kwargs, result, duration):
        if result is None:
            return
        cache = kwargs["cache"] if "cache" in kwargs else args[0]
        self.cache_len += int(cache.length)
        self.merged_len += int(result.length)
