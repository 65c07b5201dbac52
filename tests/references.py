"""Test-only references that more than one test module reads: per-term and
full-index forms of what the package computes another way, and counters
on the curvature-type full view and on the grouping of mixed tensors by
upper index."""

from sympconn import curvature
from sympconn.fourier import TensorField


def accumulate(acc, key, value):
    """acc[key] += value in place, dropping zeros: the per-term sum of the
    references, a test-only copy of the former kernel."""
    if not value:
        return
    s = value if key not in acc else acc[key] + value
    if s:
        acc[key] = s
    else:
        del acc[key]


def is_curvature_type(t):
    """Test-only reference: rank 4, antisymmetric in slots (0,1), symmetric
    in slots (2,3)."""
    return t.rank == 4 and t.symmetry_witness("curvature_type") is None


def full_fill(half, dim):
    """The plain rank-4 field, tagged 'curvature_type', whose entries with
    a < b and c <= d are `half`: each entry is written at its four places
    by T_bacd = -T_abcd and T_abdc = T_abcd, with a fresh negation."""
    comps = {}
    for (a, b, c, d), f in half.items():
        for key, g in (((a, b, c, d), f), ((b, a, c, d), -f),
                       ((a, b, d, c), f), ((b, a, d, c), -f)):
            comps[key] = g
    return TensorField(dim, 4, comps, "curvature_type", _validated=True)


def upper_half(t):
    """The entries of a rank-4 field with a < b and c <= d."""
    return {k: f for k, f in t.components.items() if k[0] < k[1] and k[2] <= k[3]}


def count_full_views(monkeypatch):
    """A list that gets one entry, the half's size, per full view that a
    `CurvatureTypeField` builds while the monkeypatch lasts."""
    calls = []
    build = curvature._full_view

    def counted(half):
        calls.append(len(half))
        return build(half)

    monkeypatch.setattr(curvature, "_full_view", counted)
    return calls


def count_groupings(monkeypatch):
    """A list that gets each mixed tensor that `_by_upper` groups while the
    monkeypatch lasts; holding them keeps their ids distinct."""
    seen = []
    group = curvature._by_upper

    def counted(m):
        seen.append(m)
        return group(m)

    monkeypatch.setattr(curvature, "_by_upper", counted)
    return seen
