"""Pure-Python kernels for sparse Fourier coefficient maps.

A coefficient map is a dict from mode tuples (length 2n, ints) to nonzero
GaussianRationals.  These loops dominate the runtime of every tensor
operation.  `accumulate` is the one in-place sparse sum for maps of any
values with `+` and `is_zero` (tensor components, Christoffel symbols).
"""


def accumulate(acc, key, value):
    """acc[key] += value in place; zero values and cancelled entries are dropped."""
    if value.is_zero():
        return
    cur = acc.get(key)
    s = value if cur is None else cur + value
    if s.is_zero():
        del acc[key]
    else:
        acc[key] = s


def dict_add(a, b):
    """Mode-wise sum; zero results are dropped."""
    out = dict(a)
    for m, c in b.items():
        cur = out.get(m)
        if cur is None:
            out[m] = c
        else:
            s = cur + c
            if s.is_zero():
                del out[m]
            else:
                out[m] = s
    return out


def dict_sub(a, b):
    """Mode-wise difference, keys in the order of dict_add(a, dict_neg(b))."""
    out = dict(a)
    for m, c in b.items():
        cur = out.get(m)
        if cur is None:
            out[m] = -c
        else:
            s = cur - c
            if s.is_zero():
                del out[m]
            else:
                out[m] = s
    return out


def dict_neg(a):
    return {m: -c for m, c in a.items()}


def dict_scale(a, c):
    """Scale by a GaussianRational, int or Fraction factor."""
    if not c:
        return {}
    return {m: v * c for m, v in a.items()}


def dict_convolve(a, b):
    """Product of trigonometric polynomials: modes add, coefficients multiply."""
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
                if s.is_zero():
                    del out[m]
                else:
                    out[m] = s
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
