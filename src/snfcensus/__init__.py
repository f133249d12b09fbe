"""Exact census toolkit for cospectral and coinvariant graphs."""

from snfcensus.census import (
    CensusError,
    CensusReport,
    InvariantSpec,
    InvariantType,
    SpecResult,
    emit_report,
    parse_spec,
    run_census,
)
from snfcensus.exact import (
    CharPoly,
    SnfResult,
    char_poly,
    snf,
)
from snfcensus.gen import (
    GraphStream,
    build_connected_catalog,
    canonical_form,
    complete_bipartite_graph,
    complete_graph,
    enumerate_connected,
    enumerate_trees,
    graph6_file_stream,
)
from snfcensus.graphio import (
    Graph,
    Graph6ByteError,
    Graph6Error,
    Graph6LengthError,
    Graph6SizeError,
    graph_from_edges,
    parse_graph6,
    write_graph6,
)
from snfcensus.matrices import (
    DisconnectedGraphError,
    MatrixKind,
    adjacency_matrix,
    build_matrix,
    distance_matrix,
)
from snfcensus.theorems import (
    expected_complete_snf,
    expected_tree_distance_snf,
    verify_dq_characterization,
    verify_tree_coinvariance,
    verify_tree_d_cospectral,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "Graph6Error",
    "Graph6SizeError",
    "Graph6LengthError",
    "Graph6ByteError",
    "graph_from_edges",
    "parse_graph6",
    "write_graph6",
    "MatrixKind",
    "DisconnectedGraphError",
    "adjacency_matrix",
    "distance_matrix",
    "build_matrix",
    "CharPoly",
    "SnfResult",
    "char_poly",
    "snf",
    "GraphStream",
    "canonical_form",
    "enumerate_connected",
    "enumerate_trees",
    "graph6_file_stream",
    "build_connected_catalog",
    "complete_graph",
    "complete_bipartite_graph",
    "InvariantSpec",
    "InvariantType",
    "SpecResult",
    "CensusReport",
    "CensusError",
    "parse_spec",
    "run_census",
    "emit_report",
    "expected_tree_distance_snf",
    "expected_complete_snf",
    "verify_tree_coinvariance",
    "verify_tree_d_cospectral",
    "verify_dq_characterization",
    "__version__",
]
