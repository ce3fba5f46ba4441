"""Immutable simple undirected graphs with distance/ball queries and file I/O.

Vertices are dense integer ids 0..n-1.
"""
from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable

INF = math.inf

VertexSet = frozenset  # sets of vertex ids


class GraphParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; adjacency lists are sorted ascending."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0 or len(self.adj) != self.n:
            raise ValueError("adjacency length must equal n")
        for v, nbrs in enumerate(self.adj):
            if list(nbrs) != sorted(set(nbrs)):
                raise ValueError(f"adjacency of {v} not sorted/deduplicated")
            for u in nbrs:
                if not 0 <= u < self.n:
                    raise ValueError(f"neighbor {u} of {v} out of range")
                if u == v:
                    raise ValueError(f"self-loop at {v}")
                if v not in self.adj[u]:
                    raise ValueError(f"adjacency not symmetric at {u},{v}")

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph, collapsing duplicate edges; self-loops are rejected."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at {u}")
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, tuple(tuple(sorted(a)) for a in adj))


def edges(g: Graph) -> list[tuple[int, int]]:
    """All edges as (u, v) with u < v, lexicographically sorted."""
    return [(u, v) for u in range(g.n) for v in g.adj[u] if u < v]


def _check_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex id {v} out of range 0..{g.n - 1}")


def _bfs(g: Graph, v: int, r: int | float, target: int = -1) -> dict[int, int]:
    """Distances from v to every vertex within r, in BFS order; stops as
    soon as target is reached."""
    dist = {v: 0}
    queue = deque([v])
    while queue:
        w = queue.popleft()
        d = dist[w]
        if d == r:
            continue
        for x in g.adj[w]:
            if x not in dist:
                dist[x] = d + 1
                if x == target:
                    return dist
                queue.append(x)
    return dist


def distance(g: Graph, u: int, v: int) -> int | float:
    """Shortest-path distance; INF when u and v are disconnected."""
    _check_vertex(g, u)
    _check_vertex(g, v)
    if u == v:
        return 0
    return _bfs(g, u, INF, v).get(v, INF)


def ball(g: Graph, v: int, r: int) -> VertexSet:
    """All vertices at distance <= r from v (v included)."""
    _check_vertex(g, v)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return frozenset(_bfs(g, v, r))


def all_balls(g: Graph, r: int) -> list[VertexSet]:
    """Whole-graph ball table; affordable precomputation at desk scale."""
    return [ball(g, v, r) for v in range(g.n)]


def ball_masks(g: Graph, r: int) -> list[int]:
    """all_balls(g, r) as bitmasks, for the subset-search oracles."""
    return [sum([1 << u for u in ball_v]) for ball_v in all_balls(g, r)]


def parse_graph(data: bytes | str, fmt: str) -> Graph:
    """Parse DIMACS edge format or the JSON graph format."""
    if isinstance(data, bytes):
        data = data.decode()
    if fmt == "dimacs":
        return _parse_dimacs(data)
    if fmt == "json":
        return _parse_json(data)
    raise ValueError(f"unknown graph format {fmt!r}")


def _parse_dimacs(text: str) -> Graph:
    n = None
    raw_edges: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphParseError("duplicate problem line", lineno)
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphParseError("malformed problem line", lineno)
            try:
                n = int(parts[2])
            except ValueError:
                raise GraphParseError("malformed vertex count", lineno) from None
            if n < 0:
                raise GraphParseError(f"negative vertex count {n}", lineno)
        elif parts[0] == "e":
            if n is None:
                raise GraphParseError("edge before problem line", lineno)
            if len(parts) != 3:
                raise GraphParseError("malformed edge line", lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphParseError("malformed edge endpoints", lineno) from None
            if u == v:
                raise GraphParseError(f"self-loop at {u}", lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphParseError(f"vertex id out of range in edge {u} {v}", lineno)
            raw_edges.append((u - 1, v - 1))
        else:
            raise GraphParseError(f"unrecognized line {parts[0]!r}", lineno)
    if n is None:
        raise GraphParseError("missing problem line")
    return from_edges(n, raw_edges)


def _parse_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc}", exc.lineno) from None
    # keys other than 'n' and 'edges' (roles, orientation, ...) are ignored
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise GraphParseError("JSON graph must have 'n' and 'edges'")
    try:
        return from_edges(int(obj["n"]), [(int(u), int(v)) for u, v in obj["edges"]])
    except (TypeError, ValueError) as exc:
        raise GraphParseError(str(exc)) from None


def to_json(g: Graph, extra: dict | None = None) -> str:
    """Canonical JSON serialization (sorted edges, stable key order)."""
    obj: dict = {"n": g.n, "edges": edges(g)}
    if extra:
        obj.update(extra)
    return json.dumps(obj, separators=(",", ":"))


def load_graph(path: str) -> Graph:
    """Load a graph file, inferring the format from the extension."""
    with open(path, "rb") as f:
        data = f.read()
    fmt = "dimacs" if path.endswith((".col", ".dimacs", ".edge")) else "json"
    return parse_graph(data, fmt)
