"""Randomized geometry-preserving embeddings with designable distance maps.

Build y = h(Ax + w) from a period-1 nonlinearity h and a random projection,
evaluate its closed-form distance and kernel maps, compute concentration
bounds, and reproduce the reference simulations via the `uemb` CLI.
"""

from .embedder import (
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
