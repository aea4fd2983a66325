"""Training-free KV-cache compression onto translated Fourier bases."""

from fourier_kv.spectral import (
    FoldOrderError,
    FourierBasis,
    ReconstructionRangeError,
    SpectralState,
    build_basis,
    compress_batch,
    fold_token,
    reconstruct,
    reconstruction_mse,
)

__version__ = "0.1.0"
