"""Graph file ingestion and export.

Two formats:
  - edge list CSV with header ``from,to,type``, type in {directed, undirected,
    node}; a ``label,,node`` row (empty ``to`` cell) names a node. Nodes are
    numbered in order of first appearance. The writer puts a node row for
    every node, in index order, ahead of the sorted edge rows;
  - adjacency matrix CSV: labels in the header row (after an optional empty
    corner cell) and the first column, in index order; entry (i, j)=1 with
    (j, i)=0 means i -> j, symmetric 1s mean undirected.
Either way, parsing a written graph gives it back, node order and labels
included. Files are UTF-8; the readers skip a leading byte-order mark, which
spreadsheet CSV exports write. A node label is a non-empty string with no leading or trailing
whitespace: the readers strip every cell, so the writer refuses any other.
"""

from __future__ import annotations

import csv

from .graphs import Cpdag, Dag, GraphError


class ParseError(ValueError):
    """Malformed graph file."""


def _build(kind, labels, directed, undirected, path):
    index = {lab: i for i, lab in enumerate(labels)}
    d = len(labels)
    dir_idx = frozenset((index[a], index[b]) for a, b in directed)
    und_idx = frozenset((index[a], index[b]) for a, b in undirected)
    if kind == "dag" and und_idx:
        raise ParseError(f"{path}: undirected edges not allowed in a dag file")
    try:
        if kind == "dag":
            return Dag(d, dir_idx, tuple(labels))
        return Cpdag(d, dir_idx, und_idx, tuple(labels))
    except GraphError as exc:
        raise ParseError(f"{path}: declared {kind}: {exc}") from exc


def _parse_edge_list(path):
    labels = []
    seen = set()
    directed = []
    undirected = []
    pairs = set()

    def note(lab):
        if lab not in seen:
            seen.add(lab)
            labels.append(lab)

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["from", "to", "type"]:
            raise ParseError(f"{path}: expected header 'from,to,type'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            a, b, typ = (c.strip() for c in row)
            typ = typ.lower()
            if not a:
                raise ParseError(f"{path}:{lineno}: empty node label in the 'from' cell")
            if typ == "node":
                if b:
                    raise ParseError(f"{path}:{lineno}: a node row needs an empty 'to' cell")
                note(a)
                continue
            if typ not in ("directed", "undirected"):
                raise ParseError(f"{path}:{lineno}: unknown edge type {typ!r}")
            if not b:
                raise ParseError(f"{path}:{lineno}: empty node label in the 'to' cell")
            if a == b:
                raise ParseError(f"{path}:{lineno}: self-loop at {a!r}")
            note(a)
            note(b)
            pair = tuple(sorted((a, b)))
            if pair in pairs:
                raise ParseError(f"{path}:{lineno}: duplicate edge between {a!r} and {b!r}")
            pairs.add(pair)
            if typ == "directed":
                directed.append((a, b))
            else:
                undirected.append((a, b))
    return labels, directed, undirected


def _parse_adjacency_matrix(path):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if any(c.strip() for c in row)]
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    corner = 1 if header[0] == "" else 0
    labels = header[corner:]
    if "" in labels:
        column = corner + labels.index("") + 1
        raise ParseError(f"{path}: empty node label in header column {column}")
    d = len(labels)
    if len(set(labels)) != d:
        raise ParseError(f"{path}: duplicate node labels in header")
    if len(rows) != d + 1:
        raise ParseError(f"{path}: expected {d} matrix rows, got {len(rows) - 1}")
    mat = [[0] * d for _ in range(d)]
    for r, row in enumerate(rows[1:]):
        cells = [c.strip() for c in row]
        if len(cells) != d + 1:
            raise ParseError(f"{path}: row {r + 2} has {len(cells)} cells, expected {d + 1}")
        if cells[0] != labels[r]:
            raise ParseError(
                f"{path}: row label {cells[0]!r} does not match header order ({labels[r]!r})"
            )
        for c, cell in enumerate(cells[1:]):
            if cell not in ("0", "1"):
                raise ParseError(f"{path}: matrix entries must be 0 or 1, got {cell!r}")
            mat[r][c] = int(cell)
    directed = []
    undirected = []
    for i in range(d):
        if mat[i][i]:
            raise ParseError(f"{path}: self-loop at {labels[i]!r}")
        for j in range(i + 1, d):
            if mat[i][j] and mat[j][i]:
                undirected.append((labels[i], labels[j]))
            elif mat[i][j]:
                directed.append((labels[i], labels[j]))
            elif mat[j][i]:
                directed.append((labels[j], labels[i]))
    return labels, directed, undirected


_PARSERS = {"edge-list": _parse_edge_list, "adjacency-matrix": _parse_adjacency_matrix}


def parse_graph(path, fmt="edge-list", kind="dag"):
    """Read a graph file of format fmt into a Dag or Cpdag (kind "dag" or
    "cpdag"); labels come from the file."""
    if fmt not in _PARSERS:
        raise ParseError(f"unknown format {fmt!r}")
    if kind not in ("dag", "cpdag"):
        raise ParseError(f"unknown graph kind {kind!r}")
    return _build(kind, *_PARSERS[fmt](path), path)


def write_graph(g, path, fmt="edge-list"):
    """Write a graph in canonical form (node rows in index order, then sorted
    edges, normalized tokens). A label the readers would not give back, an
    empty one or one not equal to its own strip(), raises GraphError before
    the file is opened; the graph's door has made every label a string."""
    for lab in g.labels:
        if not (lab and lab == lab.strip()):
            raise GraphError(
                f"node label {lab!r} cannot be written: labels must be non-empty "
                "strings with no leading or trailing whitespace"
            )
    if fmt == "edge-list":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["from", "to", "type"])
            writer.writerows((lab, "", "node") for lab in g.labels)
            rows = [(g.labels[i], g.labels[j], "directed") for i, j in g.directed]
            rows += [(g.labels[i], g.labels[j], "undirected") for i, j in g.undirected]
            writer.writerows(sorted(rows))
    elif fmt == "adjacency-matrix":
        d = g.d
        mat = [[0] * d for _ in range(d)]
        for i, j in g.directed:
            mat[i][j] = 1
        for i, j in g.undirected:
            mat[i][j] = 1
            mat[j][i] = 1
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([""] + list(g.labels))
            for i in range(d):
                writer.writerow([g.labels[i]] + mat[i])
    else:
        raise ParseError(f"unknown format {fmt!r}")


def align_to(reference, g):
    """Re-index g's nodes to match the reference graph's label order.

    Raises GraphError listing the differing labels when the node sets differ.
    """
    if set(reference.labels) != set(g.labels):
        only_ref = sorted(set(reference.labels) - set(g.labels))
        only_g = sorted(set(g.labels) - set(reference.labels))
        raise GraphError(
            f"node sets differ: only in reference {only_ref}, only in other {only_g}"
        )
    remap = {old: reference.labels.index(lab) for old, lab in enumerate(g.labels)}
    directed = frozenset((remap[i], remap[j]) for i, j in g.directed)
    if isinstance(g, Dag):
        return Dag(g.d, directed, reference.labels)
    undirected = frozenset((remap[i], remap[j]) for i, j in g.undirected)
    return Cpdag(g.d, directed, undirected, reference.labels)
