"""Sparse mode-dictionary kernels behind `fourier.FourierScalar` (see `pure`)."""
