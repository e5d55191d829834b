"""Attention-guided KV merging and collaborative decoding on a seeded toy
multimodal decoder, with the matching analytic cost model and hallucination
metrics."""

from .attn_analysis import (
    ImageAttentionStat,
    degradation_report,
    kde2d,
    read_trace_csv,
    segment_averages,
    synthetic_uniform_trace,
    uniform_attention_prediction,
)
from .cost import (
    compressed_len,
    growth_rate_closed_form,
    growth_rate_exact,
    ikod_flops,
    original_flops,
)
from .decode import (
    EOS_TOKEN,
    BaseStrategy,
    DecodePolicy,
    GenerationResult,
    Mode,
    Prefill,
    Prompt,
    Step,
    base_select,
    collaborative_combine,
    ikod_generate,
    plausibility_mask,
    prefill,
)
from .kv_merge import (
    AnchorStrategy,
    CompressedCache,
    MergePlan,
    build_merge_plan,
    layer_scores,
    merge_cache,
)
from .metrics import BinaryMetrics, BinaryOutcomes, CaptionRecord, binary_metrics, chair_scores
from .model import (
    CapacityError,
    LayeredKvCache,
    ModelConfig,
    TinyDecoder,
    make_image_embeddings,
)
from .numerics import Rng, softmax_rows

__version__ = "0.1.0"
