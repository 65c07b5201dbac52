"""Pure-Python kernels for sparse maps.

A sparse map is a dict from keys to nonzero values.  The sums, negation,
scaling and products below serve any values with `+`, `-`, `*` and a truth
value that is false exactly at zero: `Fraction` and `GaussianRational`
coefficients, `series.SparseScalar` functions as tensor components and
Christoffel symbols.  For products the keys are int tuples that add, as
Fourier modes and polynomial exponents do.  `dict_derivative` and
`dict_shift` are the Fourier-mode operations of `fourier.FourierScalar`.
These loops dominate the runtime of every tensor operation.
"""


def accumulate(acc, key, value):
    """acc[key] += value in place; zero values and cancelled entries are dropped."""
    if not value:
        return
    cur = acc.get(key)
    s = value if cur is None else cur + value
    if s:
        acc[key] = s
    else:
        del acc[key]


def dict_add(a, b):
    """Key-wise sum; zero results are dropped."""
    out = dict(a)
    for m, c in b.items():
        cur = out.get(m)
        if cur is None:
            out[m] = c
        else:
            s = cur + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def dict_sub(a, b):
    """Key-wise difference, keys in the order of dict_add(a, dict_neg(b))."""
    out = dict(a)
    for m, c in b.items():
        cur = out.get(m)
        if cur is None:
            out[m] = -c
        else:
            s = cur - c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def dict_neg(a):
    return {m: -c for m, c in a.items()}


def dict_scale(a, c):
    """Every value times the factor c; a zero factor gives the empty map."""
    if not c:
        return {}
    return {m: v * c for m, v in a.items()}


def dict_convolve(a, b):
    """Product of sparse sums over int-tuple keys: keys add, values multiply."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            p = c1 * c2
            cur = out.get(m)
            if cur is None:
                out[m] = p
            else:
                s = cur + p
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


def dict_derivative(a, axis):
    """Flat derivative along one angle: coefficient at m becomes i*m[axis]*c."""
    out = {}
    for m, c in a.items():
        k = m[axis]
        if k:
            out[m] = c.times_i() * k
    return out


def dict_shift(a, delta):
    """Multiply by the single mode e^{i delta.x}: all modes translate by delta."""
    return {tuple(x + y for x, y in zip(m, delta)): c for m, c in a.items()}
