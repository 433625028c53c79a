"""Randomized geometry-preserving embeddings with designable distance maps.

Build y = h(Ax + w) from a period-1 nonlinearity h and a random projection,
evaluate its closed-form distance and kernel maps, compute concentration
bounds, and reproduce the reference simulations via the `uemb` CLI.

Importing uemb before numpy sets ``OPENBLAS_THREAD_TIMEOUT=4``, unless the
user has set it, so OpenBLAS's idle workers sleep at once instead of
spin-waiting after each GEMM; results and thread counts are unchanged.
"""

import os

# OpenBLAS reads this once, when numpy first loads it.  At its default (28,
# i.e. 2^28 cycles) the second thread spin-waits about 0.13 CPU-s after
# every GEMM before it sleeps; at the floor, 4, it sleeps at once.  The
# thread partition, and so every product's bytes, stays the same.  On a
# 2-vCPU Xeon, ten paired runs of the repro benchmark went from a median
# 4.64 to 3.02 CPU-s per pass (-35%) at the same wall time, and a 1000x1000
# GEMM at two threads followed by a 0.3 s sleep cost 0.134 CPU-s during the
# sleep without it and 0.0002 with it.  A user's own value wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .embedder import (  # noqa: E402
    EmbeddingOperator,
    EmbeddingVector,
    build_operator,
    build_universal_operator,
    embed,
    embed_batch,
    embedding_distance,
    export_csv,
    load_embeddings,
    post_quantize,
    save_embeddings,
    universal_scale,
)
from .maps import (
    PeriodicMap,
    PowerSpectrum,
    make_fourier_mixture,
    make_multibit,
    make_sawtooth,
    make_square_wave,
    quantize_map,
)
from .randproj import (
    ProjectionSpec,
    RandomState,
    char_fn,
    projected_diff_samples,
    sample_dither,
    sample_projection,
)
from .theory import (
    BoundReport,
    DistanceMapModel,
    ambiguity,
    binary_decay_threshold,
    check_subadditivity,
    continuous_extension_bound,
    discontinuous_extension_bound,
    p2_bound,
    p2_meaningful_radius,
    p2_monte_carlo,
    pointcloud_bound,
    quantized_bound_inflation,
    rate_form,
    universal_binary_map,
    universal_binary_map_l1,
)

__version__ = "0.1.0"
