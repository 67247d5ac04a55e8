"""Roman k-dominating functions: validation and exact minimization.

A labeling assigns each vertex a value in {0,1,2}; it is a valid Roman
k-dominating function (RkDF) when every 0-labeled vertex has at least k
neighbors labeled 2.  Labelings are plain tuples of ints throughout.
"""

from __future__ import annotations

import functools
from itertools import combinations, repeat
from typing import Any, Iterable, NamedTuple, Sequence

from .graphs import Graph, GuardError, check_k, check_order, vertex_mask

Labeling = tuple[int, ...]

DEFAULT_GAMMA_KR_LIMIT = 16
DEFAULT_GAMMA_K_LIMIT = 20
DEFAULT_ENUM_LIMIT = 10


class Violation(NamedTuple):
    """One validation failure; the emitted list is exhaustive per check."""

    kind: str
    vertex: int | None = None
    member: int | None = None
    detail: str = ""


class SolveResult(NamedTuple):
    """Exact value of one quantity plus an optimality witness.

    quantity is one of "gamma_k", "gamma_kr", "d_k", "d_rk".  The witness
    certifies the value: it passes the matching validator and its
    weight/size equals the value.  A d_rk result also carries gamma_kr,
    the weight of the lightest RkDF, which its search reads off its pool;
    the other quantities leave it None.
    """

    quantity: str
    value: int
    witness: Any
    nodes_explored: int
    gamma_kr: int | None = None


def weight(f: Iterable[int]) -> int:
    """Weight of a labeling: |V_1| + 2|V_2|, i.e. the sum of its values."""
    return sum(f)


def labeling_to_string(f: Labeling) -> str:
    """Serialize a labeling as a digit string, e.g. (2,0,0,2,0) -> "20020"."""
    return "".join(map(str, f))


def labeling_from_string(s: str) -> Labeling:
    """Parse a digit string over {0,1,2} into a labeling."""
    if not s or any(c not in "012" for c in s):
        raise ValueError(f"labeling string must be nonempty digits 0/1/2, got {s!r}")
    return tuple(int(c) for c in s)


def validate_rkdf(g: Graph, k: int, f: Labeling) -> list[Violation]:
    """Check f against the RkDF condition; empty result means valid.

    Structural problems (wrong length, value outside {0,1,2}) abort the
    semantic check, mirroring how an index fault would otherwise occur.
    """
    check_k(k)
    if len(f) != g.n:
        return [Violation("length-mismatch",
                          detail=f"labeling has {len(f)} entries, graph has {g.n}")]
    out_of_range = [Violation("value-out-of-range", vertex=v,
                              detail=f"value {f[v]} at vertex {v}")
                    for v in range(g.n) if f[v] not in (0, 1, 2)]
    if out_of_range:
        return out_of_range
    v2mask = vertex_mask(v for v in range(g.n) if f[v] == 2)
    adj = g.adj
    violations = []
    for v in range(g.n):
        if f[v] == 0:
            have = (adj[v] & v2mask).bit_count()
            if have < k:
                violations.append(Violation(
                    "zero-vertex-undercovered", vertex=v,
                    detail=f"vertex {v} labeled 0 has {have} neighbors "
                           f"labeled 2, needs {k}"))
    return violations


def is_k_dominating(g: Graph, k: int, members: Iterable[int]) -> bool:
    """True iff every vertex outside the set has >= k neighbors inside it."""
    smask = vertex_mask(members)
    adj = g.adj
    for v in range(g.n):
        if not smask >> v & 1 and (adj[v] & smask).bit_count() < k:
            return False
    return True


# ---------------------------------------------------------------------------
# Packed words and enumeration
# ---------------------------------------------------------------------------

def _packed_rows(adj: Sequence[int]) -> list[int]:
    """Per vertex v, the key of the 0/1 labeling of its neighbourhood.

    Every packed word holds one byte per vertex with vertex 0 the most
    significant: the key of a labeling f is int.from_bytes(bytes(f),
    "big"), and `_decode` inverts it.  So keys sort in the lexicographic
    order of their labelings, which fixes the order of the RkDF pool and
    so of every d_R^k candidate and witness.  Words add byte by byte
    while no byte leaves [0, 255], so a count over all vertices is a few
    integer operations, and the top bit (128) of a byte marks a vertex.
    A byte holds a count of at most n - 1 neighbours plus a bias of at
    most 128 that puts a threshold on its top bit, so graphs with more
    than 128 vertices are refused here, before any search.
    """
    n = len(adj)
    if n > 128:
        raise GuardError(f"packed counts hold one byte per vertex, so they "
                         f"need n <= 128, got {n}")
    tables = _row_tables(n)
    rows = []
    for row in adj:
        packed = 0
        for table in tables:
            packed += table[row & 255]
            row >>= 8
        rows.append(packed)
    return rows


@functools.cache
def _units(n: int) -> list[int]:
    """Per vertex v, the n-byte word with a 1 in v's byte alone."""
    return [1 << 8 * (n - 1 - v) for v in range(n)]


@functools.cache
def _row_tables(n: int) -> tuple[list[int], ...]:
    """Per byte i of an adjacency row (its vertices 8i .. 8i + 7), the
    packed word of each of the 256 values of that byte: entry b is the
    sum of the units of the vertices 8i + j with bit j of b set, those
    at or above n left out.  Built once per order."""
    unit = _units(n)
    tables = []
    for base in range(0, n, 8):
        table = [0]
        for v in range(base, base + 8):
            step = unit[v] if v < n else 0
            table += [word + step for word in table]
        tables.append(table)
    return tuple(tables)


@functools.cache
def _multiples(n: int) -> list[int]:
    """j times the n-byte word with a 1 in every byte, for j < 256."""
    ones = int.from_bytes(b"\x01" * n, "big")
    return [j * ones for j in range(256)]


def _decode(key: int, n: int) -> Labeling:
    """The labeling whose n-byte key is key (see `_packed_rows`)."""
    return tuple(key.to_bytes(n, "big"))


class EnumerationResult(NamedTuple):
    """RkDFs as keys (see `_packed_rows`), sorted unless enumerate_rkdfs
    was asked for its walk order; n, the order of the graph, fixes the
    key width.  Callers that search the pool read the keys alone;
    labelings decodes them, anew on each read.
    """

    keys: list[int]
    n: int

    @property
    def labelings(self) -> list[Labeling]:
        """The labelings of keys, in the same order."""
        return [_decode(key, self.n) for key in self.keys]


def enumerate_rkdfs(g: Graph, k: int, lo: int, hi: int,
                    max_n: int | None = None,
                    by_key: bool = True) -> EnumerationResult:
    """The lightest non-empty weight level of RkDFs in [lo, hi], then the
    level one weight above it when that weight is at most hi.

    Both are empty when no RkDF weighs between lo and hi.  The all-1
    labeling weighs n, so [0, n + 1] gives the gamma_kR and gamma_kR + 1
    levels, and [w, w] gives level w alone.  No RkDF weighs less than
    min(n, 2k), yet d_rk_exact starts its window at 0, so that a lighter
    level, which only a broken walk could give, shows in gamma_kR.  Each
    labeling comes as its key (see `_packed_rows`), so keys sort in the
    order of their labelings.  With by_key each level is sorted, in
    lexicographic order of value sequences; without it each level is in
    the order the walk below reaches it (supports by size, smallest
    first, then in `combinations` order), which is as deterministic and
    skips the sort.  Only the keys and n are returned; the result
    decodes the labelings when they are read.

    An RkDF is fixed by its support S, the vertices labelled 2, and by
    the vertices of C(S) it labels 0, where C(S) is the vertices outside
    S with at least k neighbours in S; every other vertex is 1.  So S
    gives the levels n + |S| - |C(S)| through n + |S|, and level w takes
    the ways to label n + |S| - w vertices of C(S) 0.  All of those
    levels weigh at least 2|S|.  The supports are walked by size, and the
    walk stops once 2|S| passes the ceiling: hi, lowered to one above the
    lightest level found.  A support of fewer than k vertices gives no
    vertex k neighbours in it, so C(S) is empty and it lands in level
    n + |S| alone; such a size is skipped whole once that level is above
    the ceiling.  Nothing is kept across calls, and no table over all
    2^n supports is built.

    C(S) comes from one sum over S of packed rows, which counts each
    vertex's neighbours in S in its own byte.
    """
    check_k(k)
    if not 0 <= lo <= hi:
        raise ValueError(f"weight window needs 0 <= lo <= hi, "
                         f"got [{lo}, {hi}]")
    n = g.n
    check_order("enumeration", n, max_n, DEFAULT_ENUM_LIMIT)
    nb = _packed_rows(g.adj)
    mul = _multiples(n)
    ones, tops = mul[1], mul[128]
    shift = 8 * n
    # Per vertex v: v's key byte above n count bytes, with a 1 in the
    # count byte of each neighbour and -drop in v's own.  Summed over S
    # on top of bias, the count byte of a vertex outside S holds 128 - k
    # plus its neighbours in S (at most n - 1), so its top bit is set
    # exactly when they number k or more; the byte of a vertex in S loses
    # drop = n - k and stays in [128 - n, 127].  So the top bits mark
    # C(S).  With k >= n no vertex can reach k, and both are 0.  No byte
    # leaves [0, 255], so no carry or borrow crosses a byte.
    bias, drop = (mul[128 - k], n - k) if k < n else (0, 0)
    rows = [(unit << shift) - drop * unit + row
            for unit, row in zip(_units(n), nb)]
    # levels[w] holds the keys of weight w <= 2n, and levels[w + 1] exists
    levels: list[list[int]] = [[] for _ in range(2 * n + 2)]
    size = max(0, lo - n)   # a support of this size weighs at most n + size
    while size <= n and 2 * size <= hi:
        top = n + size          # the weight of S with no vertex at 0
        need = top - hi         # fewest zeros that keep a level <= hi
        if size < k and need > 0:   # C(S) is empty, the ceiling only falls
            size += 1
            continue
        for packed in map(sum, combinations(rows, size), repeat(bias)):
            cover = packed & tops
            c = cover.bit_count()
            if c < need:
                continue
            first = top - c if top - c > lo else lo
            if first + 1 < hi:
                hi = first + 1
                need = top - hi
            base = ones + (packed >> shift)
            zeros = None    # the unit of each vertex of C(S), built on demand
            for w in range(first, (hi if hi < top else top) + 1):
                z = top - w         # how many vertices of C(S) get a 0
                bucket = levels[w]
                if z == c:          # all of C(S) at 0: one labeling
                    bucket.append(base - (cover >> 7))
                elif not z:         # none of it: one labeling
                    bucket.append(base)
                else:
                    if zeros is None:
                        zeros = []
                        m = cover >> 7
                        while m:
                            low = m & -m
                            zeros.append(low)
                            m ^= low
                    bucket.extend(map(base.__sub__,
                                      map(sum, combinations(zeros, z))))
        size += 1
    for w, keys in enumerate(levels):    # the lightest level, then w + 1
        if keys:
            above = levels[w + 1]
            if by_key:
                keys, above = sorted(keys), sorted(above)
            return EnumerationResult(keys + above, n)
    return EnumerationResult([], n)


# ---------------------------------------------------------------------------
# gamma_kR: exact branch and bound
# ---------------------------------------------------------------------------

def gamma_kr_exact(g: Graph, k: int,
                   max_n: int | None = None) -> SolveResult:
    """Exact Roman k-domination number with a minimum-weight witness.

    Branch and bound over labelings (`_roman_bb`): values are tried 0,1,2,
    and a branch is cut when its weight plus a covering-deficiency lower
    bound, or plus the paper's bound gamma_kR >= 2nk / (Delta + k) applied
    to the unassigned vertices with their own largest degree among
    themselves for Delta, cannot beat the incumbent.  The deficiency
    state (which assigned zeros are still short of k 2-neighbours, and by
    how much) is passed down with each label placed, as byte-packed
    counts.  The search runs in the two passes `_roman_bb` describes: a
    proof pass proves the value and settles the labels of vertices 0, 1
    and 2, and a witness pass in index order returns the
    lexicographically least optimal labeling.  nodes_explored counts both
    passes (one pass on every graph with n <= 5 and on K_n, E_n and C_n).
    The proof pass fixes the labels of isolated and of some pendant
    vertices (`_proof_labels` gives the argument), which moves only
    nodes_explored.
    """
    check_k(k)
    check_order("gamma_kr solver", g.n, max_n, DEFAULT_GAMMA_KR_LIMIT)
    # the all-1 labeling guarantees a solution of weight n
    best, witness, nodes = _roman_bb(g, k, (0, 1, 2), g.n + 1)
    return SolveResult("gamma_kr", best, witness, nodes)


# The proof pass of `_roman_bb` places vertices 0 to _PREFIX - 1 first, in
# index order, so it settles the witness's labels there.  3 was the
# fastest length on random graphs of order 12-16; a longer prefix makes the
# proof pass pay for the index order it spares the witness pass.
_PREFIX = 3


class _Found(Exception):
    """Unwinds the witness pass of `_roman_bb` at its first leaf."""


def _proof_labels(adj: Sequence[int], k: int, alphabet: tuple[int, ...],
                  m: int) -> list[tuple[int, ...]]:
    """Per vertex, the labels the proof pass of `_roman_bb` tries.

    Vertices 0 to m - 1 take alphabet in the order given, the others its
    labels lightest first, except that an isolated vertex v, or a pendant
    v whose neighbour u is m or above, has its labels fixed by the leaf
    property of minimum Roman dominating functions (Cockayne, Dreyer,
    Hedetniemi and Hedetniemi, 2004).  For gamma_kR an isolated v takes
    (1,), and a pendant v (1,) at k >= 2 and (0, 1) at k = 1.  For gamma_k
    (the alphabet with no 1) at k = 1 a pendant v whose u has another
    neighbour takes (0,): v stays out of the set.  Every optimum can be
    rewritten on {v, u} alone into one that keeps these, with no more
    weight and the labels of 0 to m - 1 unchanged: at k >= 2 a 0 at v is
    short of k 2-neighbours, so v is 1 or 2, and a 2 at v becomes 1, with
    a 0 at u that is then short becoming 1; at k = 1 a 2 at v becomes 0
    and u becomes 2, and a component K_2 becomes 1, 1; for gamma_k, v is
    swapped for u.  Each rewrite takes a 2 off a fixed vertex and puts
    none on one, so they end.
    """
    lightest = tuple(sorted(alphabet))
    roman = 1 in alphabet
    out = [alphabet] * m
    for v in range(m, len(adj)):
        row = adj[v]
        labs = lightest
        if not row:                                      # isolated
            if roman:
                labs = (1,)
        elif not row & row - 1 and row.bit_length() > m:  # pendant, u >= m
            urow = adj[row.bit_length() - 1]
            if roman:
                labs = (1,) if k > 1 else (0, 1)
            elif k == 1 and urow & urow - 1:
                labs = (0,)
        out.append(labs)
    return out


def _positions(nb: Sequence[int], k: int, floor: int, prefix: int,
               labels: Sequence[tuple[int, ...]]) -> list[tuple]:
    """Per position of one `_roman_bb` pass, what a node there reads: its
    vertex x, the packed row of x and its top bits, x's byte offset and
    top bit, the packed rows summed over the vertices after the position
    and their top bits, x's neighbours among those vertices, the slope
    max(floor, k + top), where top is the most neighbours any of them has
    among them, and labels[x], the labels to try at x.

    The first prefix positions take the vertices 0, 1, ... in index
    order (a prefix of n or more gives the index order), and the others
    follow in the peeling order of Matula and Beck (smallest-last,
    unreversed): each next vertex has the fewest neighbours among the
    vertices not yet placed, ties going to the lowest index, whose byte
    is the highest.  r sums nb over those vertices, so its byte v counts
    v's neighbours among them, and the top bit of byte v of r + j ones is
    set exactly when that count is at least 128 - j.  So the candidates
    are the left vertices with no more than c, the fewest any of them
    has, which placing one vertex lowers by at most one (the prefix is
    placed while c is still 0); and top, from n down, falls while no left
    vertex has that many left neighbours."""
    n = len(nb)
    mul = _multiples(n)
    left = mul[128]
    r = sum(nb)
    c = 0
    top = n
    out = []
    for pos in range(n):
        if pos < prefix:
            x = pos
        else:
            while not (cand := left & ~(r + mul[127 - c])):
                c += 1
            # the lowest index has the highest bit, of bit_length 8(n - x)
            x = n - (cand.bit_length() >> 3)
            c -= c > 0
        sh = 8 * (n - 1 - x)    # x's byte
        bit = 128 << sh
        left ^= bit
        row = nb[x]
        r -= row
        while top and not left & (r + mul[128 - top]):
            top -= 1
        slope = k + top
        out.append((x, row, row << 7, sh, bit, r, left, r >> sh & 255,
                    slope if slope > floor else floor, labels[x]))
    return out


def _roman_bb(g: Graph, k: int, alphabet: tuple[int, ...],
              best: int) -> tuple[int, Labeling, int]:
    """Minimum-weight RkDF with labels from alphabet, below weight best.

    Returns (weight, first optimal labeling in index order, nodes).  One
    recursion runs in up to two passes; each labels the vertices in a
    position-to-vertex order and reads the labels to try from the
    position's entry.  The first pass places vertices 0 to m - 1 (m =
    min(_PREFIX, n)) in index order with the labels in the order given,
    then the others in peeling order (`_positions`) with the labels
    lightest first, and runs from best to exhaustion, which proves the
    optimum v; on random graphs its proof tree is far smaller than the
    index-order one.  Past the prefix it fixes the labels of isolated
    vertices, and of pendant ones whose neighbour is m or above, which by
    `_proof_labels` keeps an optimum with the witness's prefix.  No cut
    removes a leaf lighter than the incumbent, so its last improving leaf
    is its first optimal leaf; on the prefix its order is the witness's,
    so that leaf carries the witness's prefix.  The second pass runs in
    index order with that prefix fixed and the labels in the order given,
    starts from best = v + 1 and stops at its first leaf, the least
    optimal labeling in that order.  When the first pass's order is the
    identity (every graph with n <= 5, and K_n, E_n and C_n among others),
    it alone runs, in the given label order, and its last improving leaf
    is that labeling.  The second pass, and the one pass, try every label
    at every vertex, so the fixed labels move node counts only.  nodes
    counts both passes.  Some labeling of weight below best must exist.
    With two passes an assert checks that the witness pass ends at the
    proved value: a proof pass that proved too much would otherwise go
    unseen whenever the witness pass still reaches the optimum.

    Counts are packed one byte per vertex (see `_packed_rows`).  nb[v]
    has a 1 in the byte of each neighbour of v, and a set of vertices is
    kept as the top bits of its bytes.  At position pos the unassigned
    vertices are the ones after it in the order; `_positions` gives their
    nb summed (up: each vertex's unassigned neighbours) and their top bits
    (ut), once per order.  The deficiency state is all in the arguments of
    the recursion, so no call changes what its caller reads and an
    aborted pass leaves nothing behind: c2b, byte v holding 128 - min(k,
    n) plus v's 2-neighbours, so that its top bit says v has k of them;
    d, the assigned zeros with fewer (deficient); dp, nb summed over d, so
    byte u counts u's deficient neighbours; and t, the total need of d,
    where the need of a vertex of d is k minus its 2-neighbours.  A
    vertex of d keeps at least its need in unassigned neighbours.  A
    label 2 lowers the need of its d neighbours and their unassigned count
    alike, so only labels 0 and 1 recheck them, and both ask the same
    question (is a d neighbour of the vertex stranded, its top bit clear
    in c2b + up?), answered once per node.  A label 2 drops from d the
    neighbours whose top bit it sets in c2b.  A child is cut when a
    deficient vertex can no longer be covered, or when its weight plus 2
    * max(largest need, ceil(t / most vertices of d one unassigned vertex
    covers)) reaches the incumbent.  With h = (best - weight - 1) // 2,
    the largest need is at most h exactly when every byte of d has its
    top bit set in c2b + min(h, k, n) ones, and some unassigned vertex is
    next to at least want vertices of d exactly when the top bits of
    dp + (128 - want) ones meet ut.  want <= 1 always passes, since each
    vertex of d has an unassigned neighbour.  The two min() keep every
    byte in [0, 255] for n <= 128, whatever the incumbent, so no carry
    crosses a byte.

    Ahead of the need tests a child is cut by the residual form of the
    paper's bound gamma_kR >= ceil(2nk / (Delta + k)), with a slope per
    position in place of Delta.  Let U be the vertices still unassigned
    after the child, c2(v) the assigned 2-neighbours of v, and top the
    most neighbours a vertex of U has in U.  In any completion every v in
    U has k * [f(v) >= 1] plus its 2-labelled neighbours in U at least
    k - c2(v); summed over U the right side is dem = k|U| - (sum of c2
    over U).  A 1 in U adds k to the left side at weight 1, a 2 adds at
    most k + top at weight 2.  So the weight still to come is at least
    2 * dem / dn, where dn = max(2k, k + top) when label 1 is in the
    alphabet and k + top when it is not (a 1 can then not occur); with
    U = V and top = Delta >= k this is the paper's bound.  dn depends only
    on the position, since U does: the slopes are built once per order,
    and top falls towards the leaves.  The recursion carries
    dem: assigning x takes k - c2(x) off it, and a 2 at x one more for
    each unassigned neighbour.  The test has no division: the child is
    cut when 2 * dem > dn * (best - weight - 1).  The total need of d is
    not in this test: a 2 in U can also cover vertices of d, so counting
    that need would bring back their degrees into the slope, up to the
    global Delta; the largest-need and cover tests still cut on it.  Like
    the other cuts it removes only subtrees with no leaf lighter than the
    incumbent, so the value and the witness do not depend on it.

    Each child is tested before its state is built, cheapest test first,
    with room = best - weight - 1 taken once per child: (1) its weight
    against the incumbent; (2) for a 2, the residual test on dem - k +
    c2(x) - (x's unassigned neighbours), before the row is added and the
    covered neighbours leave d; for a 0 or a 1, the stranded test and the
    residual test on dem - k + c2(x), which both labels share, and then,
    for a 0, whether x has its need k - c2(x) in unassigned neighbours,
    before x joins d; (3) the largest-need and cover tests on the built
    state.  So no test reads state built for a child that a cheaper test
    has already cut.  A child builds only the fields its label changes (a
    1 passes c2b, d, dp and t on as they are) and writes its label into
    values only when it is recursed into.  Each test reads only the child
    and the incumbent, and the incumbent changes only inside a recursion,
    so the order of the tests does not change which children are kept or
    the node count.
    """
    n = g.n
    nb = _packed_rows(g.adj)
    by_byte = nb[::-1]    # the rows by byte, least significant first
    mul = _multiples(n)
    kk = min(k, n)
    bias = 128 - kk
    kb = k + bias         # kb - (x's byte of c2b) is k - (x's 2-neighbours)

    values = [0] * n
    witness: Labeling | None = None
    nodes = 0
    stop = -1             # a leaf this light ends the pass

    def rec(pos: int, wt: int, c2b: int, d: int, dp: int, t: int,
            dem: int) -> None:
        nonlocal best, witness, nodes
        nodes += 1
        if pos == n:
            # the child test below admits a leaf only with d empty and
            # weight below best
            best = wt
            witness = tuple(values)
            if wt <= stop:
                raise _Found
            return
        x, row, rowtop, sh, bit, up, ut, degr, slope, labs = steps[pos]
        hit = rowtop & d
        c2x = c2b >> sh & 255                # bias + x's 2-neighbours
        base = dem + c2x - kb                # dem once x is assigned
        # a label 0 or 1 at x would leave a d neighbour uncoverable: its
        # 2-neighbours and unassigned neighbours together fall short
        stranded = hit and hit & ~(c2b + up)
        for val in labs:
            new_wt = wt + val
            if new_wt >= best:
                continue  # a later label may be lighter
            room = best - new_wt - 1
            if val == 2:
                e = base - degr
                if 2 * e > slope * room:
                    continue  # the residual degree bound
                c2 = c2b + row
                dd, p, tt = d, dp, t
                if hit:
                    tt -= hit.bit_count()
                    cov = d & c2         # the neighbours now covered
                    dd ^= cov
                    while cov:
                        low = cov & -cov
                        p -= by_byte[(low.bit_length() - 1) >> 3]
                        cov ^= low
            elif stranded or 2 * base > slope * room:
                continue
            else:
                c2, e = c2b, base
                dd, p, tt = d, dp, t
                if val == 0:
                    q = kb - c2x         # x's need
                    if q > degr:
                        continue
                    if q > 0:
                        dd, p, tt = d | bit, dp + row, t + q
            values[x] = val
            if not dd:
                rec(pos + 1, new_wt, c2, dd, p, tt, e)
            else:
                h = room // 2
                # new_wt + 2 * (largest need of dd) < best
                if (c2 + mul[h if h < kk else kk]) & dd == dd:
                    # 2 * ceil(tt / cover) < best - new_wt holds iff some
                    # unassigned vertex covers at least want of dd
                    want = -(-tt // h)
                    if want <= 1 or want < n and (p + mul[128 - want]) & ut:
                        rec(pos + 1, new_wt, c2, dd, p, tt, e)

    floor = 2 * k if 1 in alphabet else 0
    root = (0, 0, mul[bias], 0, 0, 0, k * n)
    m = min(_PREFIX, n)
    steps = _positions(nb, k, floor, m, _proof_labels(g.adj, k, alphabet, m))
    if [step[0] for step in steps] != list(range(n)):
        rec(*root)
        stop = best
        best += 1
        steps = _positions(nb, k, floor, n, [(val,) for val in witness[:m]]
                           + [alphabet] * (n - m))
    else:
        steps = [(*step[:-1], alphabet) for step in steps]
    try:
        rec(*root)
    except _Found:
        pass
    # rec holds itself through its closure cell; emptying the cell frees
    # the closure now, by reference count, not in a cyclic collection
    del rec
    assert witness is not None
    # the witness pass ends at the proved value unless the proof is wrong
    assert stop < 0 or best == stop, (stop, best)
    return best, witness, nodes


# ---------------------------------------------------------------------------
# gamma_k: minimum k-dominating set
# ---------------------------------------------------------------------------

def gamma_k_exact(g: Graph, k: int,
                  max_n: int | None = None) -> SolveResult:
    """Exact k-domination number by subset branch and bound.

    A k-dominating set S is exactly an RkDF with V2 = S and V1 empty, so
    this is the gamma_kR search over the labels (2, 0) at half the weight,
    in the two passes of `_roman_bb`: the proof pass tries the inclusion
    branch first on vertices 0, 1 and 2 and the exclusion branch first on
    the others, and the witness pass, inclusion branch first, returns the
    lexicographically least optimal set as a 0/1 membership mask tuple.
    nodes_explored counts both passes.  The residual Delta bound of
    gamma_kR cuts here too, since a set of size s is an RkDF of weight
    2s.  With no label 1 its slope has no 2k floor: each member absorbs
    at most k plus its neighbours among the unassigned vertices, so on
    sparse graphs with k above their residual degrees the cut is steeper
    than gamma_kR's.  At k = 1 the proof pass leaves some pendant
    vertices out of the set (`_proof_labels`), which moves only
    nodes_explored.  V itself always k-dominates (the condition
    quantifies over V minus the set), so a solution exists.
    """
    check_k(k)
    check_order("gamma_k solver", g.n, max_n, DEFAULT_GAMMA_K_LIMIT)
    # the all-2 labeling (S = V) guarantees a solution of weight 2n
    best, labels, nodes = _roman_bb(g, k, (2, 0), 2 * g.n + 1)
    return SolveResult("gamma_k", best // 2,
                       tuple([val // 2 for val in labels]), nodes)
