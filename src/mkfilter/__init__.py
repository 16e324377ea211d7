"""Multi-kernel filtering toolkit.

Edge-preserving denoising with range kernels learned per image region
from a hierarchical cluster tree, together with bilateral / total
variation / curvature-filter baselines, nonstationary-noise synthesis,
and an MAE/SSIM benchmark harness.
"""

from .raster import (Raster, ComplexRaster, load_pgm, save_pgm,
                     load_f64_raster, save_f64_raster)
from .clustering import (ClusterConfig, ClusterTree, NODE_DTYPE, Histogram,
                         build_histogram, initial_gauss_pair,
                         em_similarity_cluster, proximity_cluster,
                         build_cluster_tree)
from .filters import (BfParams, KernelField, MkfResult,
                      contextual_gain, weighted_mean_filter,
                      build_kernel_field, mkf_denoise, mkf_filter)
from .baselines import (TvParams, CfParams, tv_denoise, tv_denoise_trace,
                        cf_gaussian_denoise, bf_denoise)
from .noise import (NoiseSpec, PhaseSpec, add_integral_noise,
                    make_noise_field, add_spatial_noise,
                    synthesize_complex_slice, phase_map, parse_noise_spec,
                    apply_noise)
from .metrics import mae, ssim
from .errors import ConfigError, FormatError

__version__ = "0.1.0"

__all__ = [
    "Raster", "ComplexRaster", "load_pgm", "save_pgm",
    "load_f64_raster", "save_f64_raster",
    "ClusterConfig", "ClusterTree", "NODE_DTYPE", "Histogram",
    "build_histogram", "initial_gauss_pair",
    "em_similarity_cluster", "proximity_cluster", "build_cluster_tree",
    "BfParams", "KernelField", "MkfResult",
    "contextual_gain", "weighted_mean_filter",
    "build_kernel_field", "mkf_denoise", "mkf_filter",
    "TvParams", "CfParams", "tv_denoise", "tv_denoise_trace",
    "cf_gaussian_denoise", "bf_denoise",
    "NoiseSpec", "PhaseSpec", "add_integral_noise",
    "make_noise_field", "add_spatial_noise", "synthesize_complex_slice",
    "phase_map", "parse_noise_spec", "apply_noise",
    "mae", "ssim",
    "ConfigError", "FormatError",
]
