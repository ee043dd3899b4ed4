"""JSON (de)serialisation of dependence graphs.

The format is intentionally boring — a dict with ``name``, ``operations``
and ``edges`` lists — so that graphs can be checked into a repository,
diffed, and loaded by other tooling.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import GraphError
from repro.graph.ddg import DependenceGraph
from repro.graph.edges import DependenceKind, Edge
from repro.graph.ops import Operation

FORMAT_VERSION = 1


def _declared_version(data: dict[str, Any]) -> int:
    """The envelope's schema version, tolerantly resolved.

    ``schema`` is the canonical key; ``format`` is the historical alias
    the seed wrote and is still honoured.  A missing version means 1 (the
    only format that ever existed without one), but any *declared* version
    outside ``1..FORMAT_VERSION`` is rejected — newer envelopes may carry
    fields whose absence here would silently change meaning.
    """
    declared = [
        data[key] for key in ("schema", "format") if data.get(key) is not None
    ]
    for version in declared:
        if not isinstance(version, int) or not 1 <= version <= FORMAT_VERSION:
            raise GraphError(f"unsupported graph format version {version!r}")
    return declared[0] if declared else FORMAT_VERSION


def graph_to_dict(graph: DependenceGraph) -> dict[str, Any]:
    """Serialise *graph* to a plain dict."""
    return {
        "schema": FORMAT_VERSION,
        "format": FORMAT_VERSION,
        "name": graph.name,
        "operations": [
            {
                "name": op.name,
                "latency": op.latency,
                "opclass": op.opclass,
                "produces_value": op.produces_value,
            }
            for op in graph.operations()
        ],
        "edges": [
            {
                "src": edge.src,
                "dst": edge.dst,
                "distance": edge.distance,
                "kind": edge.kind.value,
            }
            for edge in graph.edges()
        ],
    }


def graph_from_dict(data: dict[str, Any]) -> DependenceGraph:
    """Rebuild a graph serialised by :func:`graph_to_dict`.

    Malformed input raises :class:`GraphError` naming the offending
    operation or edge index: it is a permanent client error.
    """
    if not isinstance(data, dict):
        raise GraphError("a serialized graph must be a JSON object")
    _declared_version(data)
    graph = DependenceGraph(data.get("name", "loop"))
    where = "operations"
    try:
        for index, op in enumerate(data.get("operations", [])):
            where = f"operation {index}"
            graph.add_operation(
                Operation(
                    name=op["name"],
                    latency=int(op.get("latency", 1)),
                    opclass=op.get("opclass", "generic"),
                    produces_value=bool(op.get("produces_value", True)),
                )
            )
        where = "edges"
        for index, edge in enumerate(data.get("edges", [])):
            where = f"edge {index}"
            graph.add_edge(
                Edge(
                    src=edge["src"],
                    dst=edge["dst"],
                    distance=int(edge.get("distance", 0)),
                    kind=DependenceKind(edge.get("kind", "register")),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise GraphError(f"{where}: {reason}") from exc
    if not len(graph):
        raise GraphError("a graph needs at least one operation")
    return graph


def dump_graph(graph: DependenceGraph, path: str | Path) -> None:
    """Write *graph* to *path* as pretty-printed JSON."""
    Path(path).write_text(
        json.dumps(graph_to_dict(graph), indent=2) + "\n", encoding="utf-8"
    )


def load_graph(path: str | Path) -> DependenceGraph:
    """Load a graph written by :func:`dump_graph`."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return graph_from_dict(data)


def dumps_graph(graph: DependenceGraph) -> str:
    """Serialise *graph* to a JSON string."""
    return json.dumps(graph_to_dict(graph), indent=2)


def loads_graph(text: str) -> DependenceGraph:
    """Parse a graph from a JSON string."""
    return graph_from_dict(json.loads(text))
