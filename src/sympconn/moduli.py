"""Moduli of flat invariant curves under the integral symplectic group.

Valid structure-map curves (symmetric, A^t(X) A^t(Y) = 0, A^t(X)Y = A^t(Y)X)
classify flat invariant connection curves on the torus; two are identified
exactly when an element of Sp(2n, Z) carries one cube ladder to the other by
pullback.  The group is infinite, so equivalence is only semi-decided: a
bounded word search over a fixed generator set, with an explicit
"no witness within bound" verdict when the search is exhausted.  It runs on
ints, over a table of words kept per omega, for the last few omegas
searched: each word's integral inverse and the nonzero columns of that
inverse, both built once, when the word's level is added.

Every cube is read in the integral form (den, entries) the curve stores
(see `invariant`).  An integral symplectic C has an integral inverse, so
pulling back by C^{-1} carries integral cubes to integral cubes and back:
den is unchanged and only the ints move.  The action and the search's
matcher therefore pull back ints, over the nonzero entries and the
nonzero columns of C^{-1}, and compare them, next to den.  The
Sp-invariants are ranks of int matrices: the flattened cube and the int
rows of `invariant.cube_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import groupby, product
from operator import add, itemgetter

from .errors import ConfigurationError, InternalInconsistency, PreconditionError
from .fourier import SymplecticData
from .invariant import StructureMapCurve
from .linalg import rank
from .rationals import Fraction


def validity_check(b_curve: StructureMapCurve):
    """(flag, witness) for the two defining identities, order by order:
    sum_{p+q=k} A^(p)(X) A^(q)(Y) = 0 and A^(k)(X) Y = A^(k)(Y) X."""
    for k, (_, entries) in enumerate(b_curve.orders):
        # A(e_a) e_b = sum_c omega^{c.} S_abc and omega is invertible, so
        # A(e_a) e_b = A(e_b) e_a exactly when S_ab. = S_ba.; the witness is
        # the least such pair (a, b), which has a < b
        bad = [(min(a, b), max(a, b)) for (a, b, c), v in entries.items()
               if entries.get((b, a, c)) != v]
        if bad:
            return False, {
                "identity": "A(X)Y = A(Y)X",
                "order": k,
                "pair": min(bad),
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


def _sparse(row):
    return tuple((p, x) for p, x in enumerate(row) if x)


def _columns(c_inv):
    """The nonzero columns of C^{-1}, C^{-1} e_p = sum_a c_inv[a][p] e_a, read
    per a as the nonzero (p, c_inv[a][p]): the form `_pullback` reads."""
    return tuple(map(_sparse, c_inv))


def _pullback(entries, cols):
    """S' = S(C^{-1} ., C^{-1} ., C^{-1} .), from and to nonzero cube entries,
    with C^{-1} given by its `_columns`."""
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
    C^{-1} is then omega^{-1} C^T omega, integral, so every order keeps its
    den and only its ints are pulled back, over the nonzero entries and the
    nonzero columns of C^{-1}, read once per call; the result is a validated
    StructureMapCurve.
    """
    sdata = b_curve.sdata
    cf = tuple(tuple(Fraction(x) for x in row) for row in c_mat)
    if any(x.denominator != 1 for row in cf for x in row) or not sdata.is_symplectic_matrix(cf):
        raise PreconditionError("matrix is not in the lattice symplectic group")
    cols = _columns(sdata.symplectic_inverse(tuple(tuple(map(int, row)) for row in cf)))
    orders = [(den, _pullback(entries, cols)) for den, entries in b_curve.orders]
    return StructureMapCurve.from_orders(sdata, b_curve.cap, orders)


def _moves_to(c_mat, columns, a: StructureMapCurve, b: StructureMapCurve):
    """Whether the word C carries a to b, one order at a time: False at the
    first order whose den differs from b's (C keeps den) or whose pulled-back
    ints differ from b's.

    C comes from the word table, whose `columns` hold the nonzero columns of
    its integral inverse.
    """
    cols = columns[c_mat]
    return all(
        den == b_den and _pullback(entries, cols) == b_entries
        for (den, entries), (b_den, b_entries) in zip(a.orders, b.orders)
    )


def cheap_invariants(b_curve: StructureMapCurve):
    """Per-order Sp-invariants: rank of the flattened cube, dimension of
    span{A(e_a) e_b}, and the dimension of the common kernel of the A(e_a),
    each the rank of an int matrix: scaling by den_k or by the row
    denominator keeps every rank."""
    dim = b_curve.dim
    idx = range(dim)
    out = []
    for k, (_, entries) in enumerate(b_curve.orders):
        _, rows = b_curve.rows(k)
        # the cube flattened to rows a, columns (b, c), scaled by den
        flat = [[0] * dim * dim for _ in idx]
        for (a, b, c), v in entries.items():
            flat[a][b * dim + c] = v
        # row p of span_cols is row p of every A(e_a) side by side, filled
        # from the nonzero rows only; the stacked matrix holds the nonzero
        # rows of all the A(e_a)
        span_cols = [[0] * dim * dim for _ in idx]
        stacked = []
        for a, r in enumerate(rows):
            for p, row in r.items():
                for b, v in row.items():
                    span_cols[p][a * dim + b] = v
                stacked.append([row.get(b, 0) for b in idx])
        out.append({
            "cube_rank": rank(flat),
            "span_dim": rank(span_cols),
            "common_kernel_dim": dim - rank(stacked),
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


# The number of word tables kept at once, the least recently used released
# first.  A search reads one table, so a few serve a process that moves
# between a few omegas, and a process that asks many keeps only these.
WORD_TABLES_KEPT = 4


@lru_cache(maxsize=WORD_TABLES_KEPT)
def _word_table(gens, dim):
    """The breadth-first word table of a generator set closed under inverses,
    kept per set and so, with `sp_generators`, per omega, for the
    WORD_TABLES_KEPT sets used last: levels[L] lists in search order the
    matrices whose shortest word has length L, `inverses` maps each to its
    integral inverse and `columns` to the nonzero columns of that inverse
    (`_columns`, what the search's matcher reads), both built as its level
    is added, `moves` holds the rows of each g and of g^{-T}, as
    (g C)^{-T} = g^{-T} C^{-T}, and `reached` = [N] records that a refused
    enumeration of the next level found N matrices of length <= len(levels),
    more than the ceiling then in force (N = 0 while no refusal is known)."""
    ident = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    rows = [[[(k, x) for k, x in enumerate(row) if x] for row in h] for h in gens]
    rows_t = [[[(k, x) for k, x in enumerate(col) if x] for col in zip(*h)] for h in gens]
    moves = [(r, next(t for h, t in zip(gens, rows_t) if _times(r, h) == ident)) for r in rows]
    return [[ident]], {ident: ident}, {ident: _columns(ident)}, moves, [0]


def _words_up_to(gens, dim, bound):
    """Distinct matrices expressible as generator words of length <= L, mapped
    to the length of the shortest word reaching them, in breadth-first order:
    a new mapping per call, read from the word table, which gains whole
    levels as bounds need them.  Raises ConfigurationError once more than
    MAX_SEARCH_WORDS matrices are reached; the table then keeps its whole
    levels and the count it reached, so a repeat of a refused bound under
    the same ceiling is refused without enumerating again."""
    levels, inverses, columns, moves, reached = _word_table(gens, dim)
    # each distinct row of the new inverses, and its nonzero entries, kept
    # once: a few hundred rows serve thousands of words
    shared = {}
    count = 0
    for depth in range(bound + 1):
        if depth == len(levels) and reached[0] <= MAX_SEARCH_WORDS:
            new = {}
            for m, (rows, inv_t_rows) in product(levels[-1], moves):
                prod = _times(rows, m)
                if prod not in inverses and prod not in new:
                    if count + len(new) == MAX_SEARCH_WORDS:
                        # refused below; the partial level is dropped
                        reached[0] = MAX_SEARCH_WORDS + 1
                        break
                    inv = []
                    for row in zip(*_times(inv_t_rows, tuple(zip(*inverses[m])))):
                        if row not in shared:
                            shared[row] = row, _sparse(row)
                        inv.append(shared[row][0])
                    new[prod] = tuple(inv)
            else:
                levels.append(list(new))
                inverses.update(new)
                columns.update((m, tuple(shared[row][1] for row in inv)) for m, inv in new.items())
                reached[0] = 0
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
    length.  A word is tried without building a curve, on the integral forms
    the curves store: C keeps every den_k (C and C^{-1} are integral), so
    at each order a's den must equal b's, and a's ints, pulled back over
    their nonzero entries by the nonzero columns of C^{-1} that the table
    stores, must equal b's; the
    word is dropped at the first order that differs.  The chosen witness is
    then verified once through the full `sp_action(witness, a) == b`; a
    mismatch raises InternalInconsistency.

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
    columns = _word_table(gens, a.dim)[2]
    # words come in breadth-first order, so groupby yields one group per length
    for _, group in groupby(words.items(), key=itemgetter(1)):
        witnesses = [m for m, _ in group if _moves_to(m, columns, a, b)]
        if witnesses:
            # the lexicographically least shortest witness, for determinism
            witness = min(witnesses)
            if sp_action(witness, a) != b:
                raise InternalInconsistency(f"word search witness {witness} does not carry a to b")
            return EquivalenceVerdict("equivalent", witness=witness)
    return EquivalenceVerdict("no_witness_within_bound", bound=query.search_bound)
