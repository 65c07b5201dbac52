"""Sparse-map kernels behind `series.SparseScalar` and the tensor types (see `pure`)."""
