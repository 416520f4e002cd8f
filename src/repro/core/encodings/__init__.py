"""CSP-to-SAT encodings: the paper's 15 schemes, the modern at-most-one
and partial-order families, and their composition."""

from .base import EncodedProblem, Level, LevelScheme, VertexEncoding
from .cardinality import (AMO_BUILDERS, AuxAllocator, BIMDIRECT, CMDDIRECT,
                          CardinalityDirectScheme, DuplicateAuxVarError,
                          PRODDIRECT, amo_bimander, amo_commander,
                          amo_pairwise, amo_product, amo_sequential,
                          amo_sizes, build_amo, commander_groups,
                          product_grid)
from .hierarchical import build_vertex_encoding, split_sizes
from .ite import (CustomITEScheme, ITELinearScheme, ITELogScheme, ITENode,
                  ITETree, ITE_LINEAR, ITE_LOG, balanced_tree, linear_tree)
from .mixed import build_mixed_vertex_encoding, encode_mixed
from .partial_order import (POP, POP_H, PartialOrderHybridScheme,
                            PartialOrderScheme)
from .registry import (ALL_ENCODINGS, Encoding, EXTENSION_ENCODINGS,
                       MODERN_AMO_ENCODINGS, MODERN_ENCODINGS,
                       NEW_ENCODINGS, PARTIAL_ORDER_ENCODINGS,
                       PREVIOUS_ENCODINGS, REGISTRY_ENCODINGS,
                       TABLE2_ENCODINGS, encode_coloring, get_encoding,
                       parse_encoding)
from .simple import (DIRECT, DirectScheme, LOG, LogScheme, MULDIRECT,
                     MuldirectScheme, SEQDIRECT, SeqDirectScheme,
                     bits_needed)

__all__ = [
    "EncodedProblem", "Level", "LevelScheme", "VertexEncoding",
    "AMO_BUILDERS", "AuxAllocator", "BIMDIRECT", "CMDDIRECT",
    "CardinalityDirectScheme", "DuplicateAuxVarError", "PRODDIRECT",
    "amo_bimander", "amo_commander", "amo_pairwise", "amo_product",
    "amo_sequential", "amo_sizes", "build_amo", "commander_groups",
    "product_grid",
    "build_vertex_encoding", "split_sizes",
    "CustomITEScheme", "ITELinearScheme", "ITELogScheme", "ITENode",
    "ITETree", "ITE_LINEAR", "ITE_LOG", "balanced_tree", "linear_tree",
    "build_mixed_vertex_encoding", "encode_mixed",
    "POP", "POP_H", "PartialOrderHybridScheme", "PartialOrderScheme",
    "ALL_ENCODINGS", "Encoding", "EXTENSION_ENCODINGS",
    "MODERN_AMO_ENCODINGS", "MODERN_ENCODINGS", "NEW_ENCODINGS",
    "PARTIAL_ORDER_ENCODINGS", "PREVIOUS_ENCODINGS",
    "REGISTRY_ENCODINGS", "TABLE2_ENCODINGS", "encode_coloring",
    "get_encoding", "parse_encoding",
    "DIRECT", "DirectScheme", "LOG", "LogScheme", "MULDIRECT",
    "MuldirectScheme", "SEQDIRECT", "SeqDirectScheme", "bits_needed",
]
