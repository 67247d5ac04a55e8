"""Graph construction, codecs and generators."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import count, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (all_graphs, bipartite, complete, cycle, empty, gnp,
                      graph6_pairs, star)
from rkdom import (FamilySpec, Graph, GuardError, ParseError, complement,
                   complete_bipartite_parts, encode_graph6,
                   generate, parse_edge_list, parse_graph6)
from rkdom import (d_k_exact, d_rk_exact, d_rk_oracle, enumerate_rkdfs,
                   gamma_k_exact, gamma_kr_exact, gamma_kr_oracle, graphs,
                   oracles)
from rkdom.domatic import DEFAULT_DK_LIMIT, DEFAULT_DRK_N_LIMIT
from rkdom.graphs import (MAX_VERTICES, kdelta_copy_order, kdelta_order,
                          vertex_mask)
from rkdom.oracles import DEFAULT_DRK_ORACLE_N_LIMIT, DEFAULT_ORACLE_LIMIT
from rkdom.roman import (DEFAULT_ENUM_LIMIT, DEFAULT_GAMMA_K_LIMIT,
                         DEFAULT_GAMMA_KR_LIMIT)

# The random-graph properties run every order in each example: a strategy
# over the orders, under the derandomized profile, skips some of them.
ORDERS = range(1, 13)

# Encodes a graph and generates one of the order given, under a 1 GiB
# address-space cap, and prints how each call ended and whether it took
# under 0.1 s.  An order check that comes after the order's work fails
# here with MemoryError, not by exhausting the machine.
REFUSE_ORDER = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS,
                   (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
from rkdom.graphs import FamilySpec, Graph, encode_graph6, generate
n = int(sys.argv[1])
for call in (lambda: encode_graph6(Graph(n)),
             lambda: generate(FamilySpec("random-gnp", n=n, prob=0.5,
                                         seed=1), max_n=n)):
    start = time.perf_counter()
    try:
        call()
    except ValueError as exc:
        print(type(exc).__name__, exc, time.perf_counter() - start < 0.1)
"""


class TestGraphBasics:
    def test_adjacency_is_symmetric_and_irreflexive(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 0)])
        for u in range(4):
            assert not g.has_edge(u, u)
            for v in range(4):
                assert g.has_edge(u, v) == g.has_edge(v, u)

    def test_rejects_self_loop_and_bad_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph(0)

    def test_from_rows_accepts_simple_graph(self):
        assert Graph.from_rows([0b110, 0b101, 0b011]) == complete(3)

    def test_from_rows_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_rows([1])

    def test_from_rows_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError, match="disagree"):
            Graph.from_rows([0b10, 0])

    def test_from_rows_rejects_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            Graph.from_rows([1 << 5])

    def test_from_rows_rejects_order_zero(self):
        with pytest.raises(ValueError, match="order"):
            Graph.from_rows([])

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1

    def test_equality_with_a_non_graph_is_false(self):
        g = complete(3)
        assert g != g.adj and g != "Bw" and not g == 3
        assert g == Graph.from_rows(g.adj)

    def test_repr_names_the_label_order_and_size(self):
        assert repr(complete(3)) == "Graph(K_3, n=3, m=3)"
        assert repr(Graph(4, [(0, 1)])) == "Graph(graph, n=4, m=1)"

    def test_vertex_mask(self):
        assert vertex_mask([]) == 0
        assert vertex_mask(range(4)) == 0b1111
        # a vertex listed twice sets its bit once, as in overlapping blocks
        assert vertex_mask([5, 0, 5]) == 0b100001

    def test_degree_stats_examples(self):
        for g, stats in ((complete(5), (4, 4, True)),
                         (star(3), (1, 3, False))):
            assert (g.min_degree(), g.max_degree(), g.is_regular()) == stats

    def test_degree_stats_kdelta_sharpness_2(self):
        g = generate(FamilySpec("kdelta-sharpness", k=2))
        # interior copy vertices: 17; the k attachment vertices per copy: 18
        assert (g.min_degree(), g.max_degree(), g.is_regular()) == \
            (4, 18, False)


class TestGraph6:
    def test_smallest_nonempty(self):
        g = parse_graph6("A_")
        assert g.n == 2 and list(g.edges()) == [(0, 1)]

    def test_k3_roundtrip(self):
        assert encode_graph6(complete(3)) == "Bw"
        g = parse_graph6("Bw")
        assert g == complete(3)

    def test_empty_five(self):
        g = parse_graph6("D??")
        assert g.n == 5 and g.edge_count() == 0

    def test_optional_header_accepted(self):
        assert parse_graph6(">>graph6<<A_") == parse_graph6("A_")

    def test_malformed_header_byte(self):
        with pytest.raises(ParseError, match="byte 0"):
            parse_graph6("\x7f_")

    @pytest.mark.parametrize("text", ["B\u00e9w", "B\udcffw", "B\x80w",
                                      "B\U0001d4b3w"])
    def test_non_ascii_character_named_by_offset(self, text):
        # the offset of the character, not its code point as a byte value
        with pytest.raises(ParseError, match=r"^byte 1: not ASCII$"):
            parse_graph6(text)

    def test_truncated_bit_vector(self):
        with pytest.raises(ParseError, match="truncated"):
            parse_graph6("B")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing garbage"):
            parse_graph6("A_?")

    def test_nonzero_padding_rejected(self):
        # K_2 needs one bit; the remaining five padding bits must be zero.
        with pytest.raises(ParseError, match="padding"):
            parse_graph6("A" + chr(63 + 33))  # bit pattern 100001

    def test_order_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_graph6("?")

    def test_long_form_order_roundtrip(self):
        for n in (63, 64):
            g = Graph(n, [(0, n - 1), (1, 2)])
            assert parse_graph6(encode_graph6(g), max_n=n) == g

    def test_orders_above_the_header_are_refused_before_any_work(self):
        # one order above the longest graph6 header: encode_graph6 would
        # otherwise build a 2^(n(n-1)/2) mask and the generator n(n-1)/2
        # lanes before refusing it
        n = 258048
        message = "graph6 header supports n <= 258047"
        src = os.path.dirname(os.path.dirname(graphs.__file__))
        done = subprocess.run([sys.executable, "-c", REFUSE_ORDER, str(n)],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert (done.returncode, done.stdout) == \
            (0, f"ValueError {message} True\n" * 2), done.stderr
        # both refuse at once, so they are safe to call here as well
        with pytest.raises(ValueError, match=f"^{message}$"):
            encode_graph6(Graph(n))
        with pytest.raises(ValueError, match=f"^{message}$"):
            generate(FamilySpec("random-gnp", n=n, prob=0.5, seed=1),
                     max_n=n)

    def test_guard_refusal(self):
        g = Graph(65, [(0, 1)])
        with pytest.raises(GuardError):
            parse_graph6(encode_graph6(g))

    def test_roundtrip_named_graphs(self):
        graphs = [complete(1), complete(7), cycle(5), empty(6),
                  bipartite(3, 4), gnp(12, 0.5, 9)]
        for g in graphs:
            assert parse_graph6(encode_graph6(g)) == g

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_roundtrip_random(self, seed):
        for n in ORDERS:
            g = gnp(n, 0.5, seed)
            assert parse_graph6(encode_graph6(g)) == g, n


def naive_encode_graph6(g: Graph) -> str:
    """graph6 text one pair at a time, in `graph6_pairs` order."""
    n = g.n
    head = chr(n + 63) if n <= 62 else "~" + "".join(
        chr((n >> shift & 63) + 63) for shift in (12, 6, 0))
    bits = "".join(str(int(g.has_edge(u, v))) for u, v in graph6_pairs(n))
    bits += "0" * (-len(bits) % 6)
    return head + "".join(chr(int(bits[i:i + 6], 2) + 63)
                          for i in range(0, len(bits), 6))


def naive_parse_graph6(text: str, max_n: int = 64) -> Graph:
    """graph6 decoding one bit at a time, with parse_graph6's errors."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):].strip()
    if not s:
        raise ParseError("empty graph6 input")
    for off, ch in enumerate(s):
        if ord(ch) > 127:
            raise ParseError(f"byte {off}: not ASCII")
        if not 63 <= ord(ch) <= 126:
            raise ParseError(f"byte {off}: value {ord(ch)} outside graph6 "
                             f"range 63..126")
    data = [ord(ch) - 63 for ch in s]
    if data[0] == 63:
        if len(data) >= 2 and data[1] == 63:
            raise ParseError("byte 1: graph6 orders above 258047 not "
                             "supported")
        if len(data) < 4:
            raise ParseError(f"byte {len(data)}: truncated long-form order")
        n, pos = data[1] << 12 | data[2] << 6 | data[3], 4
    else:
        n, pos = data[0], 1
    if n < 1:
        raise ParseError("byte 0: graphs of order 0 are not supported")
    if n > max_n:
        raise GuardError(f"graph6 guard is n <= {max_n}, got {n}")
    pairs = graph6_pairs(n)
    ngroups = (len(pairs) + 5) // 6
    if len(data) - pos < ngroups:
        raise ParseError(f"byte {len(data)}: truncated bit vector "
                         f"(need {ngroups} data bytes, got {len(data) - pos})")
    if len(data) - pos > ngroups:
        raise ParseError(f"byte {pos + ngroups}: trailing garbage after "
                         f"bit vector")
    edges = []
    for t in range(6 * ngroups):
        byte = pos + t // 6
        if data[byte] >> (5 - t % 6) & 1:
            if t >= len(pairs):
                raise ParseError(f"byte {byte}: nonzero padding bit")
            edges.append(pairs[t])
    return Graph(n, edges)


def _outcome(parse, text: str, **kw):
    """The parsed graph, or the type and message of the error raised."""
    try:
        return parse(text, **kw)
    except (ParseError, GuardError) as exc:
        return type(exc), str(exc)


def _random_graph6(rng: random.Random, n: int) -> str:
    """A valid graph6 text of order n with random bits, padding zero."""
    nbits = n * (n - 1) // 2
    bits = [rng.getrandbits(1) for _ in range(nbits)]
    bits += [0] * (-nbits % 6)
    head = chr(n + 63) if n <= 62 else "~" + "".join(
        chr((n >> shift & 63) + 63) for shift in (12, 6, 0))
    return head + "".join(
        chr(int("".join(map(str, bits[i:i + 6])), 2) + 63)
        for i in range(0, len(bits), 6))


class TestGraph6AgainstNaiveCodec:
    """The package codec against a pair-at-a-time one kept here."""

    def test_every_canonical_text_up_to_order_5(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                text = naive_encode_graph6(g)
                assert encode_graph6(g) == text
                parsed = parse_graph6(text)
                assert parsed == naive_parse_graph6(text) == g
                assert encode_graph6(parsed) == text

    def test_random_valid_texts(self):
        rng = random.Random(23)
        for n in [*range(6, 65), *(rng.randrange(6, 65) for _ in range(60))]:
            text = _random_graph6(rng, n)
            parsed = parse_graph6(text)
            assert parsed == naive_parse_graph6(text), text
            assert encode_graph6(parsed) == text
            # built afresh, the graph encodes to the same canonical text
            assert encode_graph6(Graph(n, parsed.edges())) == text

    def test_decoded_and_complement_rows_pass_the_from_rows_checks(self):
        # a parsed graph's rows are decoded from its pair mask on the first
        # adj read, and complement hands over rows it built itself without
        # from_rows's checks; both kinds must pass those checks and be the
        # rows of the graph
        rng = random.Random(37)
        for n in [*range(1, 65), *(rng.randrange(1, 65) for _ in range(40))]:
            text = _random_graph6(rng, n)
            assert (text[0] == "~") == (n >= 63)
            parsed = parse_graph6(text)
            checked = Graph.from_rows(parsed.adj)
            assert parsed.adj == checked.adj == naive_parse_graph6(text).adj
            assert encode_graph6(checked) == text
            co = complement(parsed)
            assert co.n == n and Graph.from_rows(co.adj).adj == co.adj
            assert co == Graph(n, [(u, v) for u, v in graph6_pairs(n)
                                   if not parsed.has_edge(u, v)])

    def test_random_malformed_texts(self):
        rng = random.Random(29)
        alphabet = "?@_w~" + chr(62) + chr(127) + "\x00 \u00e9\udcff"
        texts = []
        for _ in range(1000):
            n = rng.randrange(1, 66)
            text = list(_random_graph6(rng, n))
            for _ in range(rng.randrange(1, 3)):
                cut = rng.randrange(len(text) + 1)
                action = rng.randrange(4)
                if action == 0:     # drop a character
                    del text[cut:cut + 1]
                elif action == 1:   # insert one
                    text.insert(cut, rng.choice(alphabet))
                elif action == 2:   # replace one by any graph6 character
                    text[cut:cut + 1] = chr(rng.randrange(63, 127))
                else:               # set the last byte's bits, padding too
                    text[-1:] = chr(63 + rng.randrange(64)) if text else ""
            texts.append("".join(text))
        texts += ["", " ", "~", "~~", "~?", "~??", "~???", "~~??????",
                  "~??~", "~?@?", ">>graph6<<", ">>graph6<<~??_"]
        errors = 0
        for text in texts:
            expect = _outcome(naive_parse_graph6, text)
            assert _outcome(parse_graph6, text) == expect, repr(text)
            errors += isinstance(expect, tuple)
        assert errors > 600     # most edits break the text

    def test_long_form_orders_63_and_64(self):
        rng = random.Random(31)
        for n in (63, 64):
            for text in (_random_graph6(rng, n),
                         naive_encode_graph6(Graph(n, [(0, n - 1)]))):
                assert text[0] == "~"
                g = parse_graph6(text)
                assert g.n == n and g == naive_parse_graph6(text)
                assert encode_graph6(g) == text
                assert encode_graph6(Graph(n, g.edges())) == text

    def test_long_form_header_below_63_reencodes_short(self):
        for g in (complete(1), complete(3), cycle(5), gnp(12, 0.5, 3),
                  gnp(62, 0.3, 4)):
            short = encode_graph6(g)
            n = g.n
            long = "~" + chr(63) + chr((n >> 6) + 63) + chr((n & 63) + 63) \
                + short[1:]
            parsed = parse_graph6(long)
            assert parsed == g == naive_parse_graph6(long)
            assert encode_graph6(parsed) == short

    def test_from_pairs_takes_bit_t_as_pair_t(self):
        # every mask up to n = 5, then seeded sparse and dense masks at
        # each order to 70, across the word and power-of-two boundaries
        rng = random.Random(34)
        cases = [(n, mask) for n in range(1, 6)
                 for mask in range(1 << n * (n - 1) // 2)]
        cases += [(n, sum(1 << t for t in range(n * (n - 1) // 2)
                          if rng.random() < prob))
                  for n in range(6, 71) for prob in (0.1, 0.9)]
        for n, mask in cases:
            pairs = graph6_pairs(n)
            g = Graph.from_pairs(n, mask, "m")
            edges = [pairs[t] for t in range(len(pairs)) if mask >> t & 1]
            assert g == Graph(n, edges)
            assert list(g.edges()) == sorted(edges)
            assert g.label == "m"
            assert Graph.from_rows(g.adj).adj == g.adj
            assert parse_graph6(encode_graph6(g), max_n=70) == g
        for n, mask in ((0, 0), (1, 1), (3, 8), (3, -1)):
            with pytest.raises(ValueError):
                Graph.from_pairs(n, mask)

    def test_from_rows_names_the_pair_that_disagrees(self):
        g = gnp(16, 0.4, 7)
        for u, v in graph6_pairs(16):
            rows = list(g.adj)
            rows[v] ^= 1 << u
            with pytest.raises(ValueError, match=rf"^rows {u} and {v} "
                                                 rf"disagree on edge "
                                                 rf"\({u},{v}\)$"):
                Graph.from_rows(rows)

    def test_equal_graphs_hash_equal_however_built(self):
        # == and hash read the order and the pair mask, so every build of
        # one graph, labelled or not, must compare and hash equal, before
        # and after its rows are read, and give the same rows and text,
        # and one more vertex or one pair flipped must compare unequal:
        # every graph to n = 5, then seeded masks at each order to 64, 62
        # and 63 twice more
        rng = random.Random(38)
        cases = [(n, mask) for n in range(1, 6)
                 for mask in range(1 << n * (n - 1) // 2)]
        cases += [(n, rng.getrandbits(n * (n - 1) // 2))
                  for n in (*range(6, 65), 62, 62, 63, 63)]
        for n, mask in cases:
            edges = [pair for t, pair in enumerate(graph6_pairs(n))
                     if mask >> t & 1]
            rows = [0] * n
            for u, v in edges:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            g = Graph(n, edges)
            text = encode_graph6(g)
            built = [g, Graph.from_pairs(n, mask, "m"), Graph.from_rows(rows),
                     parse_graph6(text), complement(complement(g))]
            for h in built:
                assert h == g and hash(h) == hash(g)
            for h in built:
                assert h.adj == tuple(rows) and h == g
                assert hash(h) == hash(g)
                assert encode_graph6(h) == text == naive_encode_graph6(h)
            assert g != Graph.from_pairs(n + 1, mask)
            assert n == 1 or g != Graph.from_pairs(n, mask ^ 1)


class TestGraph6AgainstNetworkx:
    """networkx's graph6 codec as an independent oracle (optional)."""

    @staticmethod
    def _corpus():
        for n in range(1, 6):
            yield from all_graphs(n)
        for n in (6, 7, 8, 12, 13, 30, 62, 63, 64):
            for prob in (0.1, 0.5, 0.9):
                for seed in range(3):
                    yield gnp(n, prob, seed)

    def test_codec_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        for g in self._corpus():
            ref = nx.Graph()
            ref.add_nodes_from(range(g.n))
            ref.add_edges_from(g.edges())
            text = encode_graph6(g)
            expect = nx.to_graph6_bytes(ref, header=False)
            assert text == expect.decode("ascii").rstrip("\n"), g.label
            parsed = nx.from_graph6_bytes(text.encode("ascii"))
            ours = parse_graph6(text)
            assert ours.n == parsed.number_of_nodes() == g.n
            assert set(ours.edges()) == {tuple(sorted(e))
                                         for e in parsed.edges()}

    def test_order_zero_and_one(self):
        nx = pytest.importorskip("networkx")
        zero = nx.to_graph6_bytes(nx.empty_graph(0), header=False)
        assert zero == b"?\n"
        with pytest.raises(ParseError):   # rkdom graphs have n >= 1
            parse_graph6(zero.decode("ascii"))
        one = nx.to_graph6_bytes(nx.empty_graph(1), header=False)
        assert encode_graph6(Graph(1)) == one.decode("ascii").rstrip("\n")
        assert parse_graph6(one.decode("ascii")) == Graph(1)


class TestEdgeList:
    def test_k2(self):
        assert parse_edge_list("n 2\n0 1") == complete(2)

    def test_k3_equals_c3(self):
        assert parse_edge_list("n 3\n0 1\n1 2\n2 0") == complete(3)

    def test_duplicate_edge_collapses(self):
        g = parse_edge_list("n 4\n0 1\n0 1")
        assert g.n == 4 and g.edge_count() == 1

    def test_blank_lines_skipped(self):
        assert parse_edge_list("\nn 2\n\n0 1\n") == complete(2)

    @pytest.mark.parametrize("text,lineno", [
        ("n 3\n0 3", 2),          # endpoint out of range
        ("n 3\n1 1", 2),          # self-loop
        ("n 3\n0 x", 2),          # non-integer token
        ("n 3\n0 1 2", 2),        # wrong token count
        ("3\n0 1", 1),            # missing 'n' keyword
        # int() alone would take these: only ASCII decimal tokens pass
        ("n 1_0\n0 1", 1),        # underscore in the count
        ("n +3\n0 1", 1),         # signed count
        ("n \uff13\n0 1", 1),     # fullwidth digit three
        ("n 20\n1_0 2", 2),       # underscore in an endpoint
        ("n 3\n0 +1", 2),         # signed endpoint
        ("n 3\n\u0660 1", 2),     # Arabic-Indic digit zero
    ])
    def test_errors_carry_line_numbers(self, text, lineno):
        with pytest.raises(ParseError, match=f"line {lineno}"):
            parse_edge_list(text)

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_edge_list("")


class TestGenerate:
    def test_complete(self):
        g = complete(3)
        assert (g.n, g.edge_count()) == (3, 3)
        assert (g.min_degree(), g.max_degree(), g.is_regular()) == (2, 2, True)

    def test_cycle_and_refusal(self):
        g = cycle(5)
        assert g.edge_count() == 5
        assert (g.min_degree(), g.max_degree(), g.is_regular()) == (2, 2, True)
        with pytest.raises(ValueError):
            generate(FamilySpec("cycle", n=2))

    def test_complete_bipartite_structure(self):
        g = bipartite(2, 3)
        assert g.edge_count() == 6
        assert not g.has_edge(0, 1) and not g.has_edge(2, 3)
        assert g.has_edge(0, 2) and g.has_edge(1, 4)

    def test_kdelta_sharpness_1(self):
        g = generate(FamilySpec("kdelta-sharpness", k=1))
        # K_4 plus an apex adjacent to one vertex; min degree 1 = k^2
        assert g.n == 5
        assert g.degree(4) == 1 and g.has_edge(4, 0)
        assert g.min_degree() == 1

    def test_kdelta_sharpness_2(self):
        g = generate(FamilySpec("kdelta-sharpness", k=2))
        assert g.n == 2 * 18 + 1 == 37
        assert g.degree(36) == 4
        assert g.min_degree() == 4

    def test_kdelta_orders(self):
        assert kdelta_copy_order(1) == 4 and kdelta_order(1) == 5
        assert kdelta_copy_order(2) == 18 and kdelta_order(2) == 37

    @pytest.mark.parametrize("spec, name, order", [
        (FamilySpec("complete", n=3), "K_3", 3),
        (FamilySpec("cycle", n=5), "C_5", 5),
        (FamilySpec("empty", n=4), "E_4", 4),
        (FamilySpec("complete-bipartite", p=2, q=3), "K_{2,3}", 5),
        (FamilySpec("random-gnp", n=8, prob=0.5, seed=42),
         "G(8,0.5,seed=42)", 8),
        (FamilySpec("kdelta-sharpness", k=2), "kdelta-sharpness(k=2)", 37),
    ])
    def test_name_and_order(self, spec, name, order):
        g = generate(spec)
        assert (spec.name(), spec.order()) == (g.label, g.n) == (name, order)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FamilySpec("complete", n=0)
        with pytest.raises(ValueError):
            FamilySpec("complete-bipartite", p=0, q=2)
        with pytest.raises(ValueError):
            FamilySpec("random-gnp", n=3, prob=1.5, seed=0)
        with pytest.raises(ValueError):
            FamilySpec("random-gnp", n=3, prob=0.5)
        with pytest.raises(ValueError):
            FamilySpec("kdelta-sharpness", k=0)
        with pytest.raises(ValueError):
            FamilySpec("nope", n=3)

    # FamilySpec is a named tuple: its constructor, _make and _replace
    # each build an instance, and each must refuse what the others do
    REFUSED = [(("nope", 3), "unknown family kind 'nope'"),
               (("complete", 0), "complete needs n >= 1"),
               (("random-gnp", 3, None, None, 1.5, 0), r"random-gnp needs "
                r"0 <= prob <= 1"),
               (("random-gnp", 3, None, None, 0.5), "random-gnp needs a seed")]

    @pytest.mark.parametrize("fields, message", REFUSED)
    def test_constructor_refuses(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FamilySpec(*fields)

    @pytest.mark.parametrize("fields, message", REFUSED)
    def test_make_refuses(self, fields, message):
        fields += (None,) * (7 - len(fields))
        with pytest.raises(ValueError, match=f"^{message}$"):
            FamilySpec._make(fields)

    @pytest.mark.parametrize("fields, message", REFUSED)
    def test_replace_refuses(self, fields, message):
        spec = FamilySpec("random-gnp", n=3, prob=0.5, seed=0)
        changes = dict(zip(FamilySpec._fields, fields))
        changes.update({f: None for f in FamilySpec._fields[len(fields):]})
        with pytest.raises(ValueError, match=f"^{message}$"):
            spec._replace(**changes)

    def test_spec_is_a_named_tuple(self):
        spec = FamilySpec("cycle", n=5)
        assert spec == ("cycle", 5, None, None, None, None, None)
        assert spec._asdict()["n"] == 5 and spec.name() == "C_5"
        assert spec._replace(n=6) == FamilySpec("cycle", n=6)
        assert FamilySpec._make(spec) == spec

    def test_generated_rows_are_decoded_on_first_read(self):
        # a random-gnp member keeps its pair mask and graph6 text; its
        # rows are built when adj is first read, and unset caches still
        # raise AttributeError
        g = generate(FamilySpec("random-gnp", n=9, prob=0.5, seed=4))
        with pytest.raises(AttributeError):
            g._adj
        text = encode_graph6(g)
        with pytest.raises(AttributeError):
            g._adj
        with pytest.raises(AttributeError, match="_stats"):
            g._stats
        with pytest.raises(AttributeError, match="no_such_name"):
            g.no_such_name
        assert g.adj == parse_graph6(text).adj
        assert g._adj is g.adj and type(g) is Graph
        assert g == parse_graph6(text) and g.label == "G(9,0.5,seed=4)"

    def test_order_guard(self):
        with pytest.raises(GuardError):
            generate(FamilySpec("empty", n=65))
        with pytest.raises(GuardError):
            generate(FamilySpec("kdelta-sharpness", k=3))  # 145 vertices


# The per-pair SplitMix64 scheme of FORMATS.md, the reference for the
# packed-lane generator of `generate`.
_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def gnp_word(seed: int, t: int) -> int:
    """t-th word of the SplitMix64 stream for the given seed."""
    return _mix64((seed + (t + 1) * 0x9E3779B97F4A7C15) & _MASK64)


def naive_gnp(n: int, prob: float, seed: int) -> Graph:
    """G(n, prob, seed) one pair at a time, in `graph6_pairs` order."""
    threshold = int(prob * 2 ** 64)
    return Graph(n, [pair for t, pair in enumerate(graph6_pairs(n))
                     if gnp_word(seed, t) < threshold])


class TestRandomGnp:
    @pytest.mark.parametrize("prob, seeds", [
        (0.0, (1,)),
        (0.3, (0, -3, 2 ** 64 + 5, -(2 ** 70))),
        (0.5, (42, -(2 ** 64) - 1, 2 ** 70)),
        (0.9999999999999999, (9,)),
        (1.0, (-1,)),
    ])
    def test_matches_the_per_pair_reference(self, prob, seeds):
        for n in range(1, 65):
            for seed in seeds:
                spec = FamilySpec("random-gnp", n=n, prob=prob, seed=seed)
                g = generate(spec)
                ref = naive_gnp(n, prob, seed)
                assert (g.n, g.adj, g.label) == (n, ref.adj, spec.name())
                # the text is kept from the generator's own bits
                text = g._graph6
                assert text == naive_encode_graph6(ref)
                assert parse_graph6(text) == g
                assert encode_graph6(g) is text

    @pytest.mark.parametrize("below", [True, False])
    def test_the_threshold_is_strict(self, below):
        # Find a pair t of order 4 whose word z has z + 1 (below) or z
        # a multiple of 2^11, so that thr = z + 1 or z is floor(prob *
        # 2^64) for a prob that a float holds exactly; the pair is an
        # edge iff z < thr.
        seed, t = next((seed, t) for seed in count()
                       for t in range(1, 6)
                       if (gnp_word(seed, t) + below) % 2 ** 11 == 0)
        thr = gnp_word(seed, t) + below
        prob = thr / 2 ** 64
        assert int(prob * 2 ** 64) == thr
        g = generate(FamilySpec("random-gnp", n=4, prob=prob, seed=seed))
        assert g.has_edge(*graph6_pairs(4)[t]) is below
        assert g == naive_gnp(4, prob, seed)

    def test_max_n_above_64_keeps_the_guard_and_bounded_caches(self):
        with pytest.raises(GuardError, match=r"^G\(71,0.5,seed=1\) guard is "
                                             r"n <= 70, got 71$"):
            generate(FamilySpec("random-gnp", n=71, prob=0.5, seed=1),
                     max_n=70)
        # more orders than the lane cache holds
        for n in range(60, 60 + MAX_VERTICES + 10):
            g = generate(FamilySpec("random-gnp", n=n, prob=0.5, seed=n),
                         max_n=200)
            assert g.n == n
        assert graphs._gnp_lanes.cache_info().currsize <= MAX_VERTICES
        ref = naive_gnp(100, 0.4, -5)
        g = generate(FamilySpec("random-gnp", n=100, prob=0.4, seed=-5),
                     max_n=100)
        assert g == ref and encode_graph6(g) == naive_encode_graph6(ref)
        assert parse_graph6(encode_graph6(g), max_n=100) == g

    def test_reproducible_bit_exact(self):
        a = gnp(10, 0.4, 123)
        b = gnp(10, 0.4, 123)
        assert a == b

    def test_frozen_edge_set(self):
        # Pinned output of the documented SplitMix64 scheme.
        assert sorted(gnp(6, 0.5, 42).edges()) == [
            (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 5), (2, 4)]
        assert sorted(gnp(5, 0.3, 7).edges()) == [(0, 2), (2, 3), (2, 4)]

    def test_prob_extremes(self):
        assert gnp(6, 0.0, 1).edge_count() == 0
        assert gnp(6, 1.0, 1).is_complete()


class TestComplement:
    def test_examples(self):
        assert complement(complete(4)) == empty(4)
        assert complement(empty(3)) == complete(3)

    def test_c5_self_complementary(self):
        g = cycle(5)
        co = complement(g)
        # brute-force isomorphism over all 120 vertex bijections
        assert any(all(g.has_edge(u, v) == co.has_edge(perm[u], perm[v])
                       for u in range(5) for v in range(u + 1, 5))
                   for perm in permutations(range(5)))

    def test_involution_exhaustive_small(self):
        for n in range(1, 5):
            for g in all_graphs(n):
                assert complement(complement(g)) == g

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_involution_random(self, seed):
        for n in ORDERS:
            g = gnp(n, 0.5, seed)
            assert complement(complement(g)) == g, n

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_degree_duality(self, seed):
        for n in ORDERS:
            g = gnp(n, 0.5, seed)
            co = complement(g)
            assert g.min_degree() + co.max_degree() == n - 1
            assert g.max_degree() + co.min_degree() == n - 1


class TestDegreeStats:
    """Graph keeps its min and max degree and edge count after the first
    call that needs them; every answer must still match its rows."""

    ACCESSORS = ("min_degree", "max_degree", "is_regular", "edge_count",
                 "is_complete", "is_empty")

    @staticmethod
    def _from_rows(g):
        degrees = [bin(row).count("1") for row in g.adj]
        m = sum(degrees) // 2
        return degrees, {
            "min_degree": min(degrees), "max_degree": max(degrees),
            "is_regular": min(degrees) == max(degrees), "edge_count": m,
            "is_complete": m == g.n * (g.n - 1) // 2, "is_empty": m == 0}

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from((0.0, 0.2, 0.5, 0.8, 1.0)),
           st.integers(0, 2 ** 32 - 1))
    def test_match_the_rows_however_built(self, prob, seed):
        for n in ORDERS:
            self._check_builds(FamilySpec("random-gnp", n=n, prob=prob,
                                          seed=seed))

    def _check_builds(self, spec):
        n = spec.n
        builds = (lambda: generate(spec),
                  lambda: Graph(n, generate(spec).edges()),
                  lambda: Graph.from_rows(generate(spec).adj),
                  lambda: parse_graph6(encode_graph6(generate(spec))),
                  lambda: complement(generate(spec)))
        for build in builds:
            # each accessor in turn is the first call on a fresh graph
            for first in self.ACCESSORS:
                g = build()
                degrees, want = self._from_rows(g)
                assert getattr(g, first)() == want[first], (spec.name, first)
                assert {name: getattr(g, name)() for name in self.ACCESSORS} \
                    == want, spec.name
            listed = g.degrees()
            assert listed == degrees
            listed.append(-1)
            assert g.degrees() == degrees and g.degrees() is not listed


class TestCompleteBipartiteDetection:
    def test_positive(self):
        assert complete_bipartite_parts(bipartite(2, 3)) == (2, 3)
        assert complete_bipartite_parts(complete(2)) == (1, 1)
        assert complete_bipartite_parts(bipartite(4, 4)) == (4, 4)

    def test_negative(self):
        assert complete_bipartite_parts(complete(3)) is None
        assert complete_bipartite_parts(empty(4)) is None
        assert complete_bipartite_parts(cycle(5)) is None
        assert complete_bipartite_parts(Graph(1)) is None
        # C_4 is K_{2,2} under relabeling
        assert complete_bipartite_parts(cycle(4)) == (2, 2)

    def test_matches_brute_force_bipartition(self):
        # K_{X,Y}: u~v exactly when u and v lie on different sides
        for n in range(1, 6):
            full = (1 << n) - 1
            for g in all_graphs(n):
                expect = None
                for x in range(1, full):
                    if all(g.has_edge(u, v) == (x >> u & 1 != x >> v & 1)
                           for v in range(n) for u in range(v)):
                        expect = tuple(sorted((x.bit_count(),
                                               (full ^ x).bit_count())))
                        break
                assert complete_bipartite_parts(g) == expect, g.label


# Every guarded search, parser and generator, called on a graph of order
# n with max_n passed through kw, and the limit it keeps when max_n is None.
GUARDED = [
    (lambda g, **kw: enumerate_rkdfs(g, 1, g.n, g.n, **kw), DEFAULT_ENUM_LIMIT),
    (lambda g, **kw: gamma_kr_oracle(g, 1, **kw), DEFAULT_ORACLE_LIMIT),
    (lambda g, **kw: gamma_kr_exact(g, 1, **kw), DEFAULT_GAMMA_KR_LIMIT),
    (lambda g, **kw: gamma_k_exact(g, 1, **kw), DEFAULT_GAMMA_K_LIMIT),
    (lambda g, **kw: d_rk_oracle(g, 1, **kw), DEFAULT_DRK_ORACLE_N_LIMIT),
    (lambda g, **kw: d_rk_exact(g, 1, **kw), DEFAULT_DRK_N_LIMIT),
    (lambda g, **kw: d_k_exact(g, 1, **kw), DEFAULT_DK_LIMIT),
    (lambda g, **kw: parse_graph6(encode_graph6(g), **kw), MAX_VERTICES),
    (lambda g, **kw: parse_edge_list(f"n {g.n}\n", **kw), MAX_VERTICES),
    (lambda g, **kw: generate(FamilySpec("empty", n=g.n), **kw), MAX_VERTICES),
]


@pytest.mark.parametrize("search, default", GUARDED,
                         ids=["enumerate_rkdfs", "gamma_kr_oracle",
                              "gamma_kr_exact", "gamma_k_exact",
                              "d_rk_oracle", "d_rk_exact", "d_k_exact",
                              "parse_graph6", "parse_edge_list", "generate"])
def test_max_n_none_keeps_the_default_limit(monkeypatch, search, default):
    # the oracle's 3^n filter takes seconds at n = 11; the all-1 labeling
    # alone shows the guard let the graph through
    monkeypatch.setattr(oracles, "naive_rkdfs", lambda g, k: [(1,) * g.n])
    over = Graph(default + 1)   # edgeless; empty() is itself guarded
    for kw in ({}, {"max_n": None}):
        with pytest.raises(GuardError, match=f"guard is n <= {default}, "
                                             f"got {default + 1}$"):
            search(over, **kw)
    search(over, max_n=default + 1)
    search(Graph(default))
    with pytest.raises(GuardError, match=f"guard is n <= {default - 1}, "):
        search(Graph(default), max_n=default - 1)
