"""Exact computational laboratory for Engel-commutator structure of finite
groups: group builders, co-Engel/directed Engel graphs, multipartite
recognition, exact spectra and energies, genus formulas, and Zagreb indices.
"""

from .analysis import (
    MultipartiteShape,
    clique_number,
    is_planar,
    recognize_complete_multipartite,
    verify_biclique,
)
from .engel import (
    co_engel_graph,
    directed_engel_graph,
    engel_relation,
    left_engel_set,
    non_engel_elements,
    reduced_co_engel_graph,
    single_arc_mask,
    validate_left_engel_baer,
)
from .graphs import DirectedGraph, SimpleGraph
from .groups import (
    FiniteGroup,
    build_alternating,
    build_cyclic,
    build_dihedral,
    build_frobenius,
    build_generalized_quaternion,
    build_symmetric,
    direct_product,
    hypercenter,
    is_nilpotent,
    is_normal,
    is_soluble,
    subgroup_generated,
    upper_central_series,
)
from .spectra import (
    IntegerSpectrum,
    IntPolynomial,
    SpectrumReport,
    char_poly_exact,
    closed_form_spectra,
    integer_roots,
    spectrum_report,
)
from .specs import GroupSpec, GroupSpecError, build_group, parse_group_spec
from .topology import (
    SurfaceClass,
    ZagrebReport,
    classification_from_genus,
    crosscap_complete,
    crosscap_complete_bipartite,
    genus_K_mnn,
    genus_complete,
    genus_complete_bipartite,
    genus_uniform_multipartite,
    zagreb_closed_form,
    zagreb_report,
)

SCHEMA = "engel-lab/1"

__version__ = "0.1.0"
