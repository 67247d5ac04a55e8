"""Graph representation, graph6/edge-list codecs and named-family generators.

Vertices are the integers 0..n-1.  A graph stores its graph6 pair mask
and reads its adjacency as one bitmask per vertex (bit u of ``adj[v]``
set iff u~v), decoded on first use, which makes neighbourhood
intersections single integer operations for every solver in the package.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, Iterator, NamedTuple

#: Default cap on graph order: one machine word per adjacency row.  Callers
#: may override it per operation; solvers impose far smaller limits.
MAX_VERTICES = 64

_GRAPH6_LONG_MAX = 258047  # largest order of the 4-byte graph6 header


class ParseError(ValueError):
    """Malformed graph6 or edge-list input."""


class GuardError(ValueError):
    """Input exceeds a configured size guard."""


class ConstructionError(ValueError):
    """A construction's preconditions are not met (raised by the
    `constructions` module; defined here with the other errors the CLI
    maps to exit codes, so that it need not import that module)."""


def check_k(k: int, what: str = "", limit: int | None = None) -> None:
    """Refuse k < 1, since the paper defines every quantity for k >= 1
    only, and, given a limit, k above it (GuardError naming what)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if limit is not None and k > limit:
        raise GuardError(f"{what} guard is k <= {limit}, got {k}")


def check_order(what: str, n: int, max_n: int | None, default: int) -> int:
    """The vertex limit in force, max_n or else default; GuardError
    naming what when n is above it."""
    limit = default if max_n is None else max_n
    if n > limit:
        raise GuardError(f"{what} guard is n <= {limit}, got {n}")
    return limit


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    A graph stores its order and its graph6 pair mask: bit t is set iff
    pair t of the order (0,1), (0,2), (1,2), (0,3), ... is an edge.  The
    adjacency rows, the degree statistics and the graph6 text are built
    on first use and kept, so a caller that only encodes a graph never
    decodes its rows; `parse_graph6` keeps the text it parsed when that
    text is the canonical encoding.  Equality and hash compare the order
    and the mask.  Instances are never mutated after construction; they
    are safe to share between concurrent readers.
    """

    __slots__ = ("n", "label", "_pairs", "_adj", "_stats", "_graph6")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (),
                 label: str | None = None):
        if n < 1:
            raise ValueError(f"graph order must be >= 1, got {n}")
        mask = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            mask |= 1 << u + v * (v - 1) // 2
        self.n = n
        self._pairs = mask
        self.label = label

    @classmethod
    def from_rows(cls, rows: Iterable[int], label: str | None = None) -> "Graph":
        """Build a graph directly from adjacency bitmask rows.

        Raises ValueError, as the constructor does, unless the rows are
        those of a simple undirected graph of order >= 1: no bit at or
        above n, no self-loop, and u in row v iff v in row u.
        """
        adj = tuple(rows)
        n = len(adj)
        if n < 1:
            raise ValueError(f"graph order must be >= 1, got {n}")
        # row v below bit v, column v of the upper triangle, is pair mask
        # bits v(v-1)/2 on
        mask = start = 0
        for v, row in enumerate(adj):
            if row >> n:    # also true for a negative row
                raise ValueError(f"row {v} has a vertex outside 0..{n - 1}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            mask |= (row & (1 << v) - 1) << start
            start += v
        # the pairs below the diagonal, mirrored, give back the rows
        # exactly when the rows are symmetric
        g = cls.from_pairs(n, mask, label)
        if g.adj != adj:
            u, v = next((u, v) for v in range(n) for u in range(v)
                        if (adj[v] >> u ^ adj[u] >> v) & 1)
            raise ValueError(f"rows {u} and {v} disagree on edge ({u},{v})")
        return g

    @classmethod
    def from_pairs(cls, n: int, mask: int, label: str | None = None) -> "Graph":
        """The graph of order n >= 1 in which pair t of the graph6 order
        (0,1), (0,2), (1,2), (0,3), ... is an edge iff bit t of mask is
        set.  Raises ValueError for n < 1, a negative mask or one with a
        bit at or above n(n-1)/2.
        """
        if n < 1:
            raise ValueError(f"graph order must be >= 1, got {n}")
        if mask >> n * (n - 1) // 2:    # also true for a negative mask
            raise ValueError(f"pair mask has a bit past the pairs of n={n}")
        # object.__new__, not __init__ with no edges: every parsed and
        # generated graph is built here, so the extra call shows in set-up
        g = object.__new__(cls)
        g.n = n
        g._pairs = mask
        g.label = label
        return g

    @property
    def adj(self) -> tuple[int, ...]:
        """One bitmask row per vertex, bit u of adj[v] set iff u~v;
        decoded from the pair mask on the first read and kept."""
        try:
            return self._adj
        except AttributeError:
            pass
        # Bit u + v(v-1)/2 of the mask is the pair u < v, so after the
        # shifts by 1..v-1 the low v bits are column v of the upper
        # triangle: row v below the diagonal.  Each u in it puts v in row u.
        mask = self._pairs
        rows = [0] * self.n
        for v in range(1, self.n):
            col = mask & (1 << v) - 1
            mask >>= v
            rows[v] = col
            bit = 1 << v
            while col:
                low = col & -col
                rows[low.bit_length() - 1] |= bit
                col ^= low
        self._adj = tuple(rows)
        return self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def _degree_stats(self) -> tuple[int, int]:
        """(min degree, max degree), built on the first call."""
        try:
            return self._stats
        except AttributeError:
            d = self.degrees()
            self._stats = (min(d), max(d))
            return self._stats

    def min_degree(self) -> int:
        return self._degree_stats()[0]

    def max_degree(self) -> int:
        return self._degree_stats()[1]

    def is_regular(self) -> bool:
        delta, Delta = self._degree_stats()
        return delta == Delta

    def edge_count(self) -> int:
        return self._pairs.bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for v, row in enumerate(self.adj):
            row >>= v + 1   # bit i is vertex v + 1 + i
            while low := row & -row:
                yield (v, v + low.bit_length())
                row ^= low

    def is_complete(self) -> bool:
        return self.edge_count() == self.n * (self.n - 1) // 2

    def is_empty(self) -> bool:
        return not self._pairs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash((self.n, self._pairs))

    def __repr__(self) -> str:
        name = self.label or "graph"
        return f"Graph({name}, n={self.n}, m={self.edge_count()})"


def vertex_mask(vertices: Iterable[int]) -> int:
    """The bitmask of the listed vertices; one listed twice is set once."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def complement(g: Graph) -> Graph:
    """Complement graph: u~v in the result iff u != v and not u~v in g."""
    n = g.n
    h = Graph.from_pairs(n, g._pairs ^ (1 << n * (n - 1) // 2) - 1)
    full = (1 << n) - 1
    # row v lacks bit v, so the last XOR clears it
    h._adj = tuple([full ^ row ^ (1 << v) for v, row in enumerate(g.adj)])
    return h


def complete_bipartite_parts(g: Graph) -> tuple[int, int] | None:
    """Detect whether g is a complete bipartite graph K_{p,q}.

    Returns (p, q) with p <= q, or None.  The neighbourhood b of vertex 0
    must be one side and the rest a the other: g is K_{p,q} exactly when b
    is nonempty, every vertex of a is adjacent to exactly b, and every
    vertex of b to exactly a.
    """
    b = g.adj[0]
    a = ((1 << g.n) - 1) ^ b
    if not b or any(row != (a if b >> v & 1 else b)
                    for v, row in enumerate(g.adj)):
        return None
    p, q = sorted((a.bit_count(), b.bit_count()))
    return p, q


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------

class _FamilyFields(NamedTuple):
    kind: str
    n: int | None = None
    p: int | None = None
    q: int | None = None
    prob: float | None = None
    seed: int | None = None
    k: int | None = None


class FamilySpec(_FamilyFields):
    """Parameters for one named graph family.

    ``kind`` is a key of FAMILIES, which lists the parameters that kind
    needs among n, p, q, prob, seed and k; the others are ignored.  A
    named tuple: the constructor, `_make` and `_replace` all refuse an
    unknown kind or a needed parameter out of its range (ValueError).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "FamilySpec":
        return super().__new__(cls, *args, **kwargs)._checked()

    @classmethod
    def _make(cls, iterable: Iterable) -> "FamilySpec":
        # _replace builds its result through _make
        return super()._make(iterable)._checked()

    def _checked(self) -> "FamilySpec":
        family = FAMILIES.get(self.kind)
        if family is None:
            raise ValueError(f"unknown family kind {self.kind!r}")
        for param in family.params:
            value = getattr(self, param)
            lo, hi, needs = _PARAM_RANGES[param]
            if value is None or not lo <= value <= hi:
                raise ValueError(f"{self.kind} needs {needs}")
        return self

    def order(self) -> int:
        """Number of vertices of the generated graph."""
        return FAMILIES[self.kind].order(self)

    def name(self) -> str:
        return FAMILIES[self.kind].name.format_map(self._asdict())


# The closed range each parameter must lie in, and how an error words it.
_PARAM_RANGES = {param: (1, math.inf, f"{param} >= 1")
                 for param in ("n", "p", "q", "k")}
_PARAM_RANGES["prob"] = (0.0, 1.0, "0 <= prob <= 1")
_PARAM_RANGES["seed"] = (-math.inf, math.inf, "a seed")


def kdelta_copy_order(k: int) -> int:
    """Order of one clique copy in the minimum-degree sharpness graph."""
    return k ** 3 + (2 * k + 1) * k


def kdelta_order(k: int) -> int:
    """Total order of the minimum-degree sharpness graph for parameter k."""
    return k * kdelta_copy_order(k) + 1


# SplitMix64: the fixed counter-based generator behind random-gnp.  Pair
# t of the graph6 order maps to the 64-bit word mix64(seed + (t+1)*GAMMA);
# the edge is present iff that word is below floor(prob * 2^64).
# Bit-exact across platforms.
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


@functools.lru_cache(maxsize=MAX_VERTICES)
def _gnp_lanes(npairs: int) -> tuple[int, int, int]:
    """(ones, low, counters) for npairs 128-bit lanes, lane t at bits
    128t .. 128t + 127 of each int: 1, 2^64 - 1 and (t+1)*GAMMA in every
    lane t; built once per pair count, for at most MAX_VERTICES counts."""
    ones = int.from_bytes(b"\1".ljust(16, b"\0") * npairs, "little")
    counters = int.from_bytes(b"".join([(t + 1).to_bytes(16, "little")
                                        for t in range(npairs)]), "little")
    return ones, _MASK64 * ones, _GAMMA * counters


#: The pair bits of lane bytes 0 and 1 as the text "0" and "1".
_BIT_TEXT = bytes.maketrans(b"\0\1", b"01")


def _gnp(spec: FamilySpec, n: int) -> Graph:
    """G(n, prob, seed): the SplitMix64 scheme run on every pair at once,
    word t in lane t of `_gnp_lanes`.  Each step works on all lanes in one
    int operation: a shift brings in bits from the next lane, which `low`
    clears, and a 64 x 64-bit product fits in its lane."""
    head = _graph6_head(n)      # refuses an order graph6 cannot hold
    npairs = n * (n - 1) // 2
    ones, low, counters = _gnp_lanes(npairs)
    # the seed is reduced first, so that no lane sum is negative and
    # borrows from the next lane
    z = ((spec.seed & _MASK64) * ones + counters) & low
    z = (z ^ z >> 30) & low
    z = z * 0xBF58476D1CE4E5B9 & low
    z = (z ^ z >> 27) & low
    z = z * 0x94D049BB133111EB & low
    z = (z ^ z >> 31) & low
    # thr - 1 + 2^64 - z never borrows from the next lane and has bit 64,
    # the low bit of lane byte 8, set exactly when z < thr
    thr = int(spec.prob * 2 ** 64)
    lanes = ((thr + _MASK64) * ones - z).to_bytes(16 * npairs, "little")
    bits = lanes[8::16].translate(_BIT_TEXT).decode()
    g = Graph.from_pairs(n, int(bits[::-1] or "0", 2))
    g._graph6 = _graph6_text(head, bits)
    return g


def _cycle(spec: FamilySpec, n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _kdelta(spec: FamilySpec, n: int) -> Graph:
    # k disjoint copies of a clique on k^3+(2k+1)k vertices plus one apex
    # joined to the first k vertices of every copy.
    k = spec.k
    m = kdelta_copy_order(k)
    apex = k * m
    edges = []
    for i in range(k):
        base = i * m
        edges.extend((base + a, base + b) for a in range(m) for b in range(a + 1, m))
        edges.extend((apex, base + j) for j in range(k))
    return Graph(n, edges)


class _Family(NamedTuple):
    params: tuple[str, ...]     # the FamilySpec fields the kind needs
    order: Callable[[FamilySpec], int]
    name: str                   # str.format template over the spec's fields
    graph: Callable[[FamilySpec, int], Graph]   # the member of order n


#: Every family kind `generate` builds, and the only list of them: the
#: `gen --family` choices are its keys.
FAMILIES = {
    "complete": _Family(("n",), lambda s: s.n, "K_{n}",
                        lambda s, n: Graph.from_pairs(
                            n, (1 << n * (n - 1) // 2) - 1)),
    "cycle": _Family(("n",), lambda s: s.n, "C_{n}", _cycle),
    "empty": _Family(("n",), lambda s: s.n, "E_{n}", lambda s, n: Graph(n)),
    "complete-bipartite": _Family(
        ("p", "q"), lambda s: s.p + s.q, "K_{{{p},{q}}}",
        lambda s, n: Graph(n, [(u, s.p + v) for u in range(s.p)
                               for v in range(s.q)])),
    "random-gnp": _Family(("n", "prob", "seed"), lambda s: s.n,
                          "G({n},{prob},seed={seed})", _gnp),
    "kdelta-sharpness": _Family(("k",), lambda s: kdelta_order(s.k),
                                "kdelta-sharpness(k={k})", _kdelta),
}


def generate(spec: FamilySpec, max_n: int | None = None) -> Graph:
    """Materialize a named family member as a Graph.

    Raises GuardError if the order exceeds max_n (None: MAX_VERTICES),
    ValueError for parameter combinations the family does not admit
    (e.g. cycles with n < 3).
    """
    n, name = spec.order(), spec.name()
    check_order(name, n, max_n, MAX_VERTICES)
    g = FAMILIES[spec.kind].graph(spec, n)
    g.label = name
    return g


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------

#: The six bits of each graph6 data character, most significant first.
_GRAPH6_BITS = {63 + value: format(value, "06b") for value in range(64)}


#: The graph6 data character of each six-bit text.
_GRAPH6_CHARS = {bits: chr(code) for code, bits in _GRAPH6_BITS.items()}


def _graph6_head(n: int) -> str:
    """The graph6 header of order n; ValueError when n is above what its
    longest form holds.  Both writers of graph6 text call this first,
    before any work that grows with n."""
    if n > _GRAPH6_LONG_MAX:
        raise ValueError(f"graph6 header supports n <= {_GRAPH6_LONG_MAX}")
    return chr(n + 63) if n <= 62 else "~" + "".join(
        [chr((n >> shift & 63) + 63) for shift in (12, 6, 0)])


def _graph6_text(head: str, bits: str) -> str:
    """The graph6 text with header head whose pair bits, in graph6
    order, are the characters "0" and "1" of bits."""
    bits += "0" * (-len(bits) % 6)
    return head + "".join([_GRAPH6_CHARS[bits[i:i + 6]]
                           for i in range(0, len(bits), 6)])


def encode_graph6(g: Graph) -> str:
    """Encode a graph in the standard graph6 ASCII format.

    The text is built on the first call and kept on the graph.
    """
    try:
        return g._graph6
    except AttributeError:
        pass
    head = _graph6_head(g.n)
    # reversed, the binary digits give bit 0 first; bit n(n-1)/2 keeps
    # the leading zeros and is cut off
    top = 1 << g.n * (g.n - 1) // 2
    g._graph6 = _graph6_text(head, format(g._pairs | top, "b")[:0:-1])
    return g._graph6


def parse_graph6(text: str, max_n: int | None = None) -> Graph:
    """Parse one graph6 line into a Graph.

    Accepts the optional ">>graph6<<" prefix.  Raises ParseError (with the
    byte offset into the stripped payload) on malformed input and
    GuardError when the encoded order exceeds max_n (None: MAX_VERTICES).
    The graph keeps the payload as its `encode_graph6` text when the
    header is the canonical one (the short form exactly when n <= 62).
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):].strip()
    if not s:
        raise ParseError("empty graph6 input")
    if not "?" <= min(s) <= max(s) <= "~":
        off, b = next((off, ord(c)) for off, c in enumerate(s)
                      if not 63 <= ord(c) <= 126)
        if b > 127:
            # decoded text: b is a code point, so no byte value to report
            raise ParseError(f"byte {off}: not ASCII")
        raise ParseError(f"byte {off}: value {b} outside graph6 range 63..126")

    if s[0] == "~":
        if s[1:2] == "~":
            raise ParseError("byte 1: graph6 orders above 258047 not supported")
        if len(s) < 4:
            raise ParseError(f"byte {len(s)}: truncated long-form order")
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | (ord(s[3]) - 63)
        pos = 4
    else:
        n = ord(s[0]) - 63
        pos = 1
    if n < 1:
        raise ParseError("byte 0: graphs of order 0 are not supported")
    check_order("graph6", n, max_n, MAX_VERTICES)

    nbits = n * (n - 1) // 2
    ngroups = (nbits + 5) // 6
    if len(s) - pos < ngroups:
        raise ParseError(f"byte {len(s)}: truncated bit vector "
                         f"(need {ngroups} data bytes, got {len(s) - pos})")
    if len(s) - pos > ngroups:
        raise ParseError(f"byte {pos + ngroups}: trailing garbage after bit vector")
    bits = s[pos:].translate(_GRAPH6_BITS)
    if "1" in bits[nbits:]:     # the padding, all in the last byte
        raise ParseError(f"byte {len(s) - 1}: nonzero padding bit")

    # read reversed, the bit string is the pair mask, padding at the top
    g = Graph.from_pairs(n, int(bits[::-1] or "0", 2))
    if pos == 1 or n > 62:
        g._graph6 = s
    return g


# ---------------------------------------------------------------------------
# Edge-list codec
# ---------------------------------------------------------------------------

def _decimal(token: str, lineno: int, what: str) -> int:
    """Value of an ASCII decimal token; int() alone would also accept a
    sign, underscores and non-ASCII digits."""
    if not (token.isascii() and token.isdigit()):
        raise ParseError(f"line {lineno}: {what} {token!r} is not an "
                         f"ASCII decimal")
    return int(token)


def parse_edge_list(text: str, max_n: int | None = None) -> Graph:
    """Parse the plain edge-list format.

    First nonempty line is ``n <count>``; each following nonempty line is
    one edge ``u v`` with 0-based endpoints.  Duplicate edges collapse.
    Raises ParseError with the offending 1-based line number and
    GuardError when n exceeds max_n (None: MAX_VERTICES).
    """
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise ParseError(f"line {lineno}: expected header 'n <count>'")
            n = _decimal(tokens[1], lineno, "vertex count")
            if n < 1:
                raise ParseError(f"line {lineno}: vertex count must be >= 1")
            check_order("edge-list", n, max_n, MAX_VERTICES)
            continue
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected 'u v'")
        u = _decimal(tokens[0], lineno, "endpoint")
        v = _decimal(tokens[1], lineno, "endpoint")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        if max(u, v) >= n:
            raise ParseError(f"line {lineno}: endpoint out of range 0..{n - 1}")
        edges.append((u, v))
    if n is None:
        raise ParseError("line 1: missing 'n <count>' header")
    return Graph(n, edges)
