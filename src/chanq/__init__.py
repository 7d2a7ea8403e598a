"""chanq: channel-wise 8-bit fixed-point post-training quantization.

Converts small full-precision networks to per-channel Qn.m fixed point
and executes them bit-exactly, so layer-wise vs channel-wise accuracy and
SQNR comparisons can be reproduced at desk scale.
"""

__version__ = "0.1.0"

from .fixedpoint import QFormat, dequantize, fl_from_max, quantize, rounding_shift
from .flsolver import (
    classify_pdf,
    label_channel,
    optimal_fl,
    sqnr_noise,
    train_knn,
)
from .graph import Graph, GraphError, LayerSpec, execute_float, fold_batchnorm, load_model, save_model
from .pdfs import PdfModel, fit_pdf
from .planner import QuantPlan, coordinate_layer, solve_plan
from .profiling import ChannelStats, collect_stats, standardized_moments, stats_from_samples
from .qengine import QuantizedGraph, execute_quantized, quantize_params
from .synthetic import SynthSpec, build_graph, write_bundle
from .tensorfile import read_tensor, write_tensor

__all__ = [
    "QFormat",
    "quantize",
    "dequantize",
    "fl_from_max",
    "rounding_shift",
    "Graph",
    "GraphError",
    "LayerSpec",
    "load_model",
    "save_model",
    "fold_batchnorm",
    "execute_float",
    "ChannelStats",
    "collect_stats",
    "standardized_moments",
    "stats_from_samples",
    "PdfModel",
    "fit_pdf",
    "sqnr_noise",
    "optimal_fl",
    "label_channel",
    "train_knn",
    "classify_pdf",
    "QuantPlan",
    "coordinate_layer",
    "solve_plan",
    "QuantizedGraph",
    "quantize_params",
    "execute_quantized",
    "SynthSpec",
    "build_graph",
    "write_bundle",
    "read_tensor",
    "write_tensor",
    "__version__",
]
