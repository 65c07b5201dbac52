"""Exact engine for formal curves of symplectic connections on tori.

Everything is computed in exact rational / Gaussian-rational arithmetic;
all geometric statements are verified as identities, order by order in the
deformation parameter.
"""

__version__ = "0.1.0"
