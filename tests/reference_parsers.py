"""Reference parsers that read a graph file one line at a time into an edge list.

Each line is split, checked and turned into an (u, v) pair of fresh ints;
the edge list then goes through `build_graph`, which validates it a second
time.  The library parsers fill the neighbour sets directly from a label
map instead; tests require equal GraphDocuments, or a ParseError with the
same text, on every document.
"""
from __future__ import annotations

from zetakit.cli import MAX_DIMACS_VERTICES, GraphDocument, ParseError
from zetakit.graph import build_graph


def parse_edge_list(text: str) -> GraphDocument:
    """Lines of "u v" label pairs; '#' starts a comment; blanks ignored."""
    ids: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected 2 tokens, found {len(tokens)}")
        a, b = tokens
        if a == b:
            raise ParseError(f"line {lineno}: self-loop on {a!r}")
        for tok in (a, b):
            if tok not in ids:
                ids[tok] = len(ids)
        edges.append((ids[a], ids[b]))
    labels = tuple(sorted(ids, key=ids.get))
    return GraphDocument(build_graph(len(ids), edges), labels, "edges")


def parse_dimacs(text: str) -> GraphDocument:
    """DIMACS: "c" comments, one "p edge N M" header, "e u v" 1-based edges."""
    n = None
    m_declared = 0
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate 'p' header")
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError(f"line {lineno}: header must read 'p edge N M'")
            try:
                n, m_declared = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer header counts") from None
            if n < 0 or m_declared < 0:
                raise ParseError(f"line {lineno}: negative header counts")
            if n > MAX_DIMACS_VERTICES:
                raise ParseError(f"line {lineno}: header declares {n} vertices, "
                                 f"more than the limit of {MAX_DIMACS_VERTICES}")
            continue
        if tokens[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge line before 'p' header")
            if len(tokens) != 3:
                raise ParseError(f"line {lineno}: edge line needs 'e u v'")
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer vertex id") from None
            for x in (u, v):
                if not 1 <= x <= n:
                    raise ParseError(f"line {lineno}: vertex id {x} outside 1..{n}")
            if u == v:
                raise ParseError(f"line {lineno}: self-loop on {u}")
            edges.append((u - 1, v - 1))
            continue
        raise ParseError(f"line {lineno}: unrecognized line type {tokens[0]!r}")
    if n is None:
        raise ParseError("missing 'p edge N M' header")
    g = build_graph(n, edges)
    warnings = ()
    if g.m != m_declared:
        warnings = (f"header declares {m_declared} edges, parsed {g.m} distinct",)
    return GraphDocument(g, tuple(str(i + 1) for i in range(n)), "dimacs", warnings)
