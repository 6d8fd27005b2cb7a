"""setiso: isomorphism of strings, hypergraphs, colored graphs and
hereditarily finite sets under a permutation group.

Every isomorphism query answers with an :class:`~setiso.perm.IsoCoset`:
either empty, or the full automorphism group of the first object together
with one representative isomorphism, so answers can be verified element by
element.
"""

from .perm import (
    Permutation,
    PermGroup,
    GroupHom,
    IsoCoset,
    is_giant,
)
from .graphs import ColoredGraph
from .strings import ColoredString, SolverConfig, StringQuery, string_iso, graph_iso_under_group
from .pstrings import (
    Hypergraph,
    PPartition,
    PString,
    PStringFamily,
    VirtualSizeConfig,
    hypergraph_to_family,
    make_family,
)
from .solver import (
    GsiInstance,
    balance_orbits,
    combine_windows,
    generalized_string_iso,
    normalize_instance,
    set_of_strings_iso,
)
from .simplify import SimplifyClass, simplify_on_window
from .structure import (
    PartitionChain,
    StructureGraph,
    build_structure_graph,
    combine_along_blocks,
    is_almost_d_ary,
    unfold_and_act,
)
from .normalize import NormalizedInstance, normalize_families, renormalize_families
from .certificates import (
    Certificate,
    GiantRep,
    affected_points,
    find_giant_rep,
    local_certificate_pair,
)
from .refine import Coloring, NotTCRBounded, color_refinement, iso_tcr_pairs, tcr_sequence
from .hfs import HfsTerm, hfs_to_graph, iso_hfs
from .minorfree import (
    SmallClassReport,
    bipartite_genus,
    genus_to_h,
    iso_excluded_minor,
    iso_genus,
    lemma_small_class,
)

__all__ = [
    "Permutation", "PermGroup", "GroupHom", "IsoCoset",
    "is_giant",
    "ColoredGraph", "ColoredString", "StringQuery", "string_iso",
    "graph_iso_under_group",
    "Hypergraph", "PPartition", "PString", "PStringFamily",
    "VirtualSizeConfig", "hypergraph_to_family", "make_family",
    "GsiInstance", "SolverConfig", "balance_orbits", "combine_windows",
    "generalized_string_iso", "normalize_instance", "set_of_strings_iso",
    "SimplifyClass", "simplify_on_window",
    "PartitionChain", "StructureGraph", "build_structure_graph",
    "combine_along_blocks", "is_almost_d_ary", "unfold_and_act",
    "NormalizedInstance", "normalize_families", "renormalize_families",
    "Certificate", "GiantRep", "affected_points", "find_giant_rep",
    "local_certificate_pair",
    "Coloring", "NotTCRBounded", "color_refinement", "iso_tcr_pairs",
    "tcr_sequence",
    "HfsTerm", "hfs_to_graph", "iso_hfs",
    "genus_to_h", "bipartite_genus", "iso_excluded_minor", "iso_genus",
    "SmallClassReport", "lemma_small_class",
]
