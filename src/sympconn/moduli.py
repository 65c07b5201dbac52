"""Moduli of flat invariant curves under the integral symplectic group.

Valid structure-map curves (symmetric, A^t(X) A^t(Y) = 0, A^t(X)Y = A^t(Y)X)
classify flat invariant connection curves on the torus; two are identified
exactly when an element of Sp(2n, Z) carries one cube ladder to the other by
pullback.  The group is infinite, so equivalence is only semi-decided: a
bounded word search over a fixed generator set, with an explicit
"no witness within bound" verdict when the search is exhausted.  It runs on
ints, over a table of words and their inverses kept once per omega.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, groupby, product
from math import lcm
from operator import add, itemgetter

from .errors import ConfigurationError, InternalInconsistency, PreconditionError
from .fourier import SymplecticData
from .invariant import StructureMapCurve
from .linalg import rank
from .rationals import Fraction


def validity_check(b_curve: StructureMapCurve):
    """(flag, witness) for the two defining identities, order by order:
    sum_{p+q=k} A^(p)(X) A^(q)(Y) = 0 and A^(k)(X) Y = A^(k)(Y) X."""
    dim = b_curve.dim
    for k in range(b_curve.cap + 1):
        # A(e_a) e_b = sum_c omega^{c.} S_abc and omega is invertible, so
        # A(e_a) e_b = A(e_b) e_a exactly when S_ab. = S_ba.
        cube = b_curve.cubes[k]
        for a in range(dim):
            for b in range(dim):
                if cube[a][b] != cube[b][a]:
                    return False, {
                        "identity": "A(X)Y = A(Y)X",
                        "order": k,
                        "pair": (a, b),
                    }
        table = b_curve.products(k)
        if table:
            return False, {
                "identity": "A(X)A(Y) = 0",
                "order": k,
                "pair": min(table),
            }
    return True, None


def require_valid(b_curve: StructureMapCurve):
    ok, witness = validity_check(b_curve)
    if not ok:
        raise PreconditionError(f"invalid structure-map curve: {witness}")


def _cube_entries(cube):
    """The nonzero entries {(a, b, c): S_abc} of a cube."""
    return {
        (a, b, c): v
        for a, plane in enumerate(cube)
        for b, line in enumerate(plane)
        for c, v in enumerate(line)
        if v
    }


def _pullback(entries, c_inv):
    """S' = S(C^{-1} ., C^{-1} ., C^{-1} .), from and to nonzero cube entries."""
    # C^{-1} e_p = sum_a c_inv[a][p] e_a: per a the nonzero (p, c_inv[a][p])
    cols = [[(p, x) for p, x in enumerate(row) if x] for row in c_inv]
    new = {}
    for (a, b, c), v in entries.items():
        for p, ca in cols[a]:
            va = v * ca
            for q, cb in cols[b]:
                vv = va * cb
                for r, cc in cols[c]:
                    new[p, q, r] = new.get((p, q, r), 0) + vv * cc
    return {key: v for key, v in new.items() if v}


def sp_action(c_mat, b_curve: StructureMapCurve) -> StructureMapCurve:
    """(C . B)(X) Y = C B(C^{-1} X) C^{-1} Y; on lowered cubes this is the
    pullback of every slot by C^{-1} (C preserves omega).

    C must be an integral symplectic matrix for the curve's omega: a
    non-integral entry or C^T omega C != omega raises PreconditionError.
    C^{-1} is then omega^{-1} C^T omega, every cube is pulled back over its
    nonzero entries, and the result is a validated StructureMapCurve.
    """
    sdata = b_curve.sdata
    cf = tuple(tuple(Fraction(x) for x in row) for row in c_mat)
    if any(x.denominator != 1 for row in cf for x in row) or not sdata.is_symplectic_matrix(cf):
        raise PreconditionError("matrix is not in the lattice symplectic group")
    c_inv = sdata.symplectic_inverse(tuple(tuple(map(int, row)) for row in cf))
    idx = range(b_curve.dim)
    cubes = [[[[e.get((p, q, r), 0) for r in idx] for q in idx] for p in idx]
             for e in (_pullback(_cube_entries(cube), c_inv) for cube in b_curve.cubes)]
    return StructureMapCurve(sdata, b_curve.cap, cubes)


def _scaled(entries, d):
    """d v for each nonzero entry v, an int num d // den where den divides d."""
    return {
        key: v.numerator * (d // v.denominator) if d % v.denominator == 0 else d * v
        for key, v in entries.items()
    }


def _matcher_data(a: StructureMapCurve, b: StructureMapCurve):
    """The arguments after C of `_moves_to` for the pair (a, b).

    With d the common denominator of a's entries, d a and its pullback by
    any integral C are integer cubes, kept as their nonzero entries, so each
    word moves ints and compares them with d b, where a non-int matches none.
    """
    a_entries = [_cube_entries(cube) for cube in a.cubes]
    d = lcm(*(v.denominator for entries in a_entries for v in entries.values()))
    return (_word_table(sp_generators(a.sdata), a.dim)[1], [_scaled(e, d) for e in a_entries],
            [_scaled(_cube_entries(cube), d) for cube in b.cubes])


def _moves_to(c_mat, inverses, a_entries, b_entries):
    """Whether the word C carries a to b, pulled back and compared one order
    at a time: False at the first order whose cube differs.

    The arguments after C come from `_matcher_data(a, b)`.  C comes from the
    word table, so it is integral and symplectic and has its inverse there.
    """
    c_inv = inverses[c_mat]
    return all(
        _pullback(entries, c_inv) == target
        for entries, target in zip(a_entries, b_entries)
    )


def cheap_invariants(b_curve: StructureMapCurve):
    """Per-order Sp-invariants: rank of the flattened cube, dimension of
    span{A(e_a) e_b}, and the dimension of the common kernel of the A(e_a)."""
    idx = range(b_curve.dim)
    out = []
    for k, cube in enumerate(b_curve.cubes):
        rows = b_curve.rows(k)
        # row p of span_cols is row p of every A(e_a) side by side; the
        # stacked matrix holds the nonzero rows of all the A(e_a)
        span_cols = [[r.get(p, {}).get(b, 0) for r in rows for b in idx] for p in idx]
        stacked = [[row.get(b, 0) for b in idx] for r in rows for row in r.values()]
        out.append({
            "cube_rank": rank([list(chain.from_iterable(plane)) for plane in cube]),
            "span_dim": rank(span_cols),
            "common_kernel_dim": b_curve.dim - rank(stacked),
        })
    return out


@cache
def sp_generators(sdata: SymplecticData):
    """A fixed generating set of Sp(2n, Z) for the standard block omega:
    the omega rotation S, the symmetric transvections T_B = [[I, B], [0, I]],
    and GL(n, Z) block embeddings diag(A, (A^T)^{-1}); inverses included.

    Built once per omega, as a tuple: the order of its elements decides the
    order of the search's words and so its witnesses."""
    if not sdata.is_standard():
        raise PreconditionError(
            "the documented generator set applies to the standard omega only"
        )
    n = sdata.n

    def blocks(a, b, c, d):
        return tuple(tuple(x + y) for x, y in zip(a + c, b + d))

    def square(diagonal, *entries):
        """diagonal * I_n with the given (i, j, value) entries set."""
        m = [[diagonal * (i == j) for j in range(n)] for i in range(n)]
        for i, j, v in entries:
            m[i][j] = v
        return m

    eye, zero = square(1), square(0)
    gens = [blocks(zero, eye, square(-1), zero)]
    gens += [blocks(eye, square(0, (i, j, 1), (j, i, 1)), zero, eye)
             for i in range(n) for j in range(i, n)]
    # GL(n, Z) generators A with A^{-T} written out; the symplectic check
    # below rejects a wrong one
    swap = square(1, (0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1))
    gl = [(square(1, (0, 1, 1)), square(1, (1, 0, -1))), (swap, swap)] if n >= 2 else []
    gl.append((square(1, (0, 0, -1)),) * 2)
    gens += [blocks(a, zero, zero, a_inv_t) for a, a_inv_t in gl]
    out = []
    seen = set()
    for g in gens:
        if not sdata.is_symplectic_matrix(g):
            raise InternalInconsistency("generator is not symplectic")
        for m in (g, sdata.symplectic_inverse(g)):
            if m not in seen:
                seen.add(m)
                out.append(m)
    return tuple(out)


# Ceiling on the number of distinct matrices a word search enumerates.  All
# of them are found before any is tried, so a bound past the ceiling is
# refused rather than run.  For reference: 13, 110, 756 and 4570 words at
# dim 4 for L = 1..4, and 2136 at dim 6 for L = 3.
MAX_SEARCH_WORDS = 10_000


def _times(g_rows, m):
    """g m from the nonzero (k, g_ik) of each row of g: a row whose one entry
    is 1 reuses a row of m, so most rows of a product are shared tuples."""
    out = []
    for row in g_rows:
        if len(row) == 1 and row[0][1] == 1:
            out.append(m[row[0][0]])
            continue
        acc = (0,) * len(m)
        for k, x in row:
            acc = map(add, acc, m[k] if x == 1 else [x * v for v in m[k]])
        out.append(tuple(acc))
    return tuple(out)


@cache
def _word_table(gens, dim):
    """The breadth-first word table of a generator set closed under inverses,
    kept once per set and so, with `sp_generators`, once per omega and
    process: levels[L] lists in search order the matrices whose shortest word
    has length L, `inverses` maps each to its integral inverse, and `moves`
    holds the rows of each g and of g^{-T}, as (g C)^{-T} = g^{-T} C^{-T}."""
    ident = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    rows = [[[(k, x) for k, x in enumerate(row) if x] for row in h] for h in gens]
    rows_t = [[[(k, x) for k, x in enumerate(col) if x] for col in zip(*h)] for h in gens]
    moves = [(r, next(t for h, t in zip(gens, rows_t) if _times(r, h) == ident)) for r in rows]
    return [[ident]], {ident: ident}, moves


def _words_up_to(gens, dim, bound):
    """Distinct matrices expressible as generator words of length <= L, mapped
    to the length of the shortest word reaching them, in breadth-first order:
    a new mapping per call, read from the word table, which gains whole
    levels as bounds need them.  Raises ConfigurationError once more than
    MAX_SEARCH_WORDS matrices are reached."""
    levels, inverses, moves = _word_table(gens, dim)
    count = 0
    for depth in range(bound + 1):
        if depth == len(levels):
            new = {}
            for m, (rows, inv_t_rows) in product(levels[-1], moves):
                prod = _times(rows, m)
                if prod not in inverses and prod not in new:
                    if count + len(new) == MAX_SEARCH_WORDS:
                        break  # refused below; the partial level is dropped
                    new[prod] = tuple(zip(*_times(inv_t_rows, tuple(zip(*inverses[m])))))
            else:
                levels.append(list(new))
                inverses.update(new)
        if depth == len(levels) or count + len(levels[depth]) > MAX_SEARCH_WORDS:
            raise ConfigurationError(
                f"word search bound {bound} exceeds the ceiling of "
                f"{MAX_SEARCH_WORDS} words (reached at word length {depth})"
            )
        count += len(levels[depth])
    return {m: depth for depth in range(bound + 1) for m in levels[depth]}


@dataclass
class ModuliClassQuery:
    a: StructureMapCurve
    b: StructureMapCurve
    search_bound: int


@dataclass
class EquivalenceVerdict:
    kind: str  # "equivalent" | "distinct" | "no_witness_within_bound"
    witness: tuple | None = None
    separating: dict | None = None
    bound: int | None = None


def equivalence_semidecide(query: ModuliClassQuery) -> EquivalenceVerdict:
    """Cheap invariants first, then a bounded Sp(2n, Z) word search.

    All words up to the bound are read from the per-omega word table; they
    are then tried one word length at a time, and the search stops after the
    first length that holds a witness, returning the least matrix of that
    length.  A word is tried without building a curve: with C^{-1} from the
    table, the integer cubes d a (d the common denominator of a's entries)
    are pulled back one order at a time over their nonzero entries and
    compared with d b, and the word is dropped at the first order that
    differs.  The chosen witness is then verified once through the full
    `sp_action(witness, a) == b`; a mismatch raises InternalInconsistency.

    A bound exhaustion is an honest third verdict: the curves may still be
    equivalent through a longer word.  A negative bound, or one whose words
    number more than MAX_SEARCH_WORDS, raises ConfigurationError before any
    word is tried.
    """
    a, b = query.a, query.b
    if query.search_bound < 0:
        raise ConfigurationError(
            f"word search bound must be >= 0, got {query.search_bound}"
        )
    if a.sdata != b.sdata or a.cap != b.cap:
        raise PreconditionError("queries need matching omega and caps")
    require_valid(a)
    require_valid(b)
    inv_a = cheap_invariants(a)
    inv_b = cheap_invariants(b)
    if inv_a != inv_b:
        order = next(k for k in range(a.cap + 1) if inv_a[k] != inv_b[k])
        return EquivalenceVerdict(
            "distinct",
            separating={"order": order, "a": inv_a[order], "b": inv_b[order]},
        )
    gens = sp_generators(a.sdata)
    words = _words_up_to(gens, a.dim, query.search_bound)
    data = _matcher_data(a, b)
    # words come in breadth-first order, so groupby yields one group per length
    for _, group in groupby(words.items(), key=itemgetter(1)):
        witnesses = [m for m, _ in group if _moves_to(m, *data)]
        if witnesses:
            # the lexicographically least shortest witness, for determinism
            witness = min(witnesses)
            if sp_action(witness, a) != b:
                raise InternalInconsistency(f"word search witness {witness} does not carry a to b")
            return EquivalenceVerdict("equivalent", witness=witness)
    return EquivalenceVerdict("no_witness_within_bound", bound=query.search_bound)
