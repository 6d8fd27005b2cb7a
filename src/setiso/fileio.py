"""Parsers and serializers for the line-oriented file formats.

Formats (all whitespace-separated, 0-indexed points):

  .grp   line 1: ``n k``; then k lines of n images.
  .str   line 1: ``n``; line 2: n color ids.
  .hg    line 1: ``n m``; then m lines ``k v1 ... vk``.
  .psf   line 1: ``n c``; line 2: the class_of table; then one line per
         member: class id followed by the class's letters in point order.
  .cg    line 1: ``n m``; n lines ``v color``; m lines ``u v cuv cvu``.
  .hfs   line 1: ``universe n``; line 2: a term over atoms written as
         integers, sets as ``{ t1 t2 ... }``, tuples as ``( t1 t2 ... )``.

Parse errors carry 1-based line numbers.
"""

from __future__ import annotations

from .graphs import ColoredGraph
from .hfs import HfsTerm
from .perm import PermGroup, Permutation
from .pstrings import Hypergraph, PPartition, PString, PStringFamily, make_family
from .strings import ColoredString


class ParseError(ValueError):
    def __init__(self, path: str, line: int, message: str):
        super().__init__("%s:%d: %s" % (path, line, message))
        self.path = path
        self.line = line


def _read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def _ints(path: str, lineno: int, line: str, expect: int | None = None) -> list[int]:
    try:
        values = [int(tok) for tok in line.split()]
    except ValueError:
        raise ParseError(path, lineno, "expected integers, got %r" % line)
    if expect is not None and len(values) != expect:
        raise ParseError(path, lineno, "expected %d values, got %d" % (expect, len(values)))
    return values


def read_group(path: str) -> PermGroup:
    lines = _read_lines(path)
    if not lines:
        raise ParseError(path, 1, "empty group file")
    n, k = _ints(path, 1, lines[0], 2)
    gens = []
    for i in range(k):
        if i + 1 >= len(lines):
            raise ParseError(path, i + 2, "missing generator line")
        images = _ints(path, i + 2, lines[i + 1], n)
        try:
            gens.append(Permutation(images))
        except ValueError as exc:
            raise ParseError(path, i + 2, str(exc))
    return PermGroup(gens, n)


def write_group(path: str, group: PermGroup) -> None:
    lines = ["%d %d" % (group.degree, len(group.generators))]
    for g in group.generators:
        lines.append(" ".join(map(str, g.images)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_string(path: str) -> ColoredString:
    lines = _read_lines(path)
    if len(lines) < 2:
        raise ParseError(path, 1, "string file needs two lines")
    (n,) = _ints(path, 1, lines[0], 1)
    letters = _ints(path, 2, lines[1], n)
    return ColoredString(tuple(letters))


def write_string(path: str, s: ColoredString) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%d\n%s\n" % (s.n, " ".join(map(str, s.letters))))


def read_hypergraph(path: str) -> Hypergraph:
    lines = _read_lines(path)
    if not lines:
        raise ParseError(path, 1, "empty hypergraph file")
    n, m = _ints(path, 1, lines[0], 2)
    edges = []
    for i in range(m):
        if i + 1 >= len(lines):
            raise ParseError(path, i + 2, "missing edge line")
        values = _ints(path, i + 2, lines[i + 1])
        if not values or values[0] != len(values) - 1:
            raise ParseError(path, i + 2, "edge line must start with its vertex count")
        for v in values[1:]:
            if not 0 <= v < n:
                raise ParseError(path, i + 2, "vertex %d out of range" % v)
        edges.append(frozenset(values[1:]))
    return Hypergraph(n, frozenset(edges))


def write_hypergraph(path: str, h: Hypergraph) -> None:
    lines = ["%d %d" % (h.n, len(h.edges))]
    for e in sorted(h.edges, key=lambda e: sorted(e)):
        vs = sorted(e)
        lines.append(" ".join(map(str, [len(vs)] + vs)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_family(path: str) -> PStringFamily:
    lines = _read_lines(path)
    if len(lines) < 2:
        raise ParseError(path, 1, "family file needs a header and a class table")
    n, c = _ints(path, 1, lines[0], 2)
    class_of = _ints(path, 2, lines[1], n)
    try:
        part = PPartition(n, tuple(class_of))
    except ValueError as exc:
        raise ParseError(path, 2, str(exc))
    if part.num_classes != c:
        raise ParseError(path, 2, "class table has %d classes, header says %d"
                         % (part.num_classes, c))
    members = []
    for i, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        values = _ints(path, i, line)
        cid = values[0]
        if not 0 <= cid < c:
            raise ParseError(path, i, "class id %d out of range" % cid)
        size = len(part.members(cid))
        if len(values) - 1 != size:
            raise ParseError(path, i, "class %d needs %d letters, got %d"
                             % (cid, size, len(values) - 1))
        members.append(PString(cid, tuple(values[1:])))
    try:
        return make_family(part, members)
    except ValueError as exc:
        raise ParseError(path, len(lines), str(exc))


def write_family(path: str, fam: PStringFamily) -> None:
    lines = ["%d %d" % (fam.partition.n, fam.partition.num_classes),
             " ".join(map(str, fam.partition.class_of))]
    for m in fam.members:
        if fam.sentinel is not None and all(l == fam.sentinel for l in m.letters):
            continue  # padding is an internal artifact
        lines.append(" ".join(map(str, (m.class_id,) + m.letters)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_colored_graph(path: str) -> ColoredGraph:
    lines = _read_lines(path)
    if not lines:
        raise ParseError(path, 1, "empty graph file")
    n, m = _ints(path, 1, lines[0], 2)
    if len(lines) < 1 + n + m:
        raise ParseError(path, len(lines) + 1, "expected %d more lines" % (1 + n + m - len(lines)))
    vcolors = {}
    for i in range(n):
        v, color = _ints(path, 2 + i, lines[1 + i], 2)
        if not 0 <= v < n:
            raise ParseError(path, 2 + i, "vertex %d out of range" % v)
        if v in vcolors:
            raise ParseError(path, 2 + i, "vertex %d is listed twice" % v)
        vcolors[v] = color
    arcs = {}
    for i in range(m):
        u, v, cuv, cvu = _ints(path, 2 + n + i, lines[1 + n + i], 4)
        for w in (u, v):
            if not 0 <= w < n:
                raise ParseError(path, 2 + n + i, "vertex %d out of range" % w)
        if u == v:
            raise ParseError(path, 2 + n + i, "loops are not allowed")
        if (u, v) in arcs:
            raise ParseError(path, 2 + n + i, "edge %d %d is listed twice" % (u, v))
        arcs[(u, v)] = cuv
        arcs[(v, u)] = cvu
    try:
        return ColoredGraph.build(n, arcs, [vcolors[v] for v in range(n)])
    except ValueError as exc:
        raise ParseError(path, 1, str(exc))


def write_colored_graph(path: str, graph: ColoredGraph) -> None:
    lines = ["%d %d" % (graph.n, len(graph.edges))]
    for v in range(graph.n):
        lines.append("%d %d" % (v, graph.vertex_colors[v]))
    for e in sorted(graph.edges, key=sorted):
        u, v = sorted(e)
        lines.append("%d %d %d %d" % (u, v, graph.arc_colors[(u, v)],
                                      graph.arc_colors[(v, u)]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _tokenize_term(path: str, text: str) -> list[str]:
    return text.replace("{", " { ").replace("}", " } ") \
               .replace("(", " ( ").replace(")", " ) ").split()


def read_hfs(path: str) -> tuple[int, HfsTerm]:
    lines = _read_lines(path)
    if len(lines) < 2:
        raise ParseError(path, 1, "hfs file needs a header and a term line")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "universe":
        raise ParseError(path, 1, "header must be 'universe n'")
    try:
        n = int(head[1])
    except ValueError:
        raise ParseError(path, 1, "universe size must be an integer")
    tokens = _tokenize_term(path, lines[1])
    pos = 0

    def parse() -> HfsTerm:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError(path, 2, "unexpected end of term")
        tok = tokens[pos]
        pos += 1
        if tok == "{":
            children = []
            while pos < len(tokens) and tokens[pos] != "}":
                children.append(parse())
            if pos >= len(tokens):
                raise ParseError(path, 2, "unclosed '{'")
            pos += 1
            return HfsTerm.make_set(children)
        if tok == "(":
            children = []
            while pos < len(tokens) and tokens[pos] != ")":
                children.append(parse())
            if pos >= len(tokens):
                raise ParseError(path, 2, "unclosed '('")
            pos += 1
            return HfsTerm.make_tuple(children)
        try:
            index = int(tok)
        except ValueError:
            raise ParseError(path, 2, "unexpected token %r" % tok)
        if not 0 <= index < n:
            raise ParseError(path, 2, "atom %d outside the universe" % index)
        return HfsTerm.make_atom(index)

    term = parse()
    if pos != len(tokens):
        raise ParseError(path, 2, "trailing tokens after the term")
    return n, term


def term_text(term: HfsTerm) -> str:
    if term.kind == "atom":
        return str(term.atom)
    body = " ".join(term_text(c) for c in term.children)
    if term.kind == "set":
        return "{ %s }" % body if body else "{ }"
    return "( %s )" % body if body else "( )"


def write_hfs(path: str, universe: int, term: HfsTerm) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("universe %d\n%s\n" % (universe, term_text(term)))


def structure_graph_dump(sg) -> str:
    """One vertex per line ``id depth leaf?``, then arcs ``u v``, then the
    generator action tables."""
    from .structure import token_key
    order = sorted(sg.vertices, key=token_key)
    ids = {v: i for i, v in enumerate(order)}
    lines = ["vertices %d" % len(order)]
    for v in order:
        lines.append("%d %d %d" % (ids[v], sg.depth(v), 1 if not sg.children(v) else 0))
    lines.append("arcs %d" % len(sg.arcs))
    for u, v in sorted(sg.arcs, key=lambda a: (ids[a[0]], ids[a[1]])):
        lines.append("%d %d" % (ids[u], ids[v]))
    lines.append("generators %d" % len(sg.group.generators))
    for amap in sg._generator_maps():
        lines.append(" ".join(str(ids[amap[v]]) for v in order))
    return "\n".join(lines) + "\n"
