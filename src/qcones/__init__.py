"""Signless-Laplacian spectra of cone graphs: closed forms, moments,
cospectral mates and searches."""

from .errors import (
    ConstructionError,
    EigensolverError,
    FormatError,
    InapplicableError,
    ParameterError,
    QConesError,
    ScaleError,
)
from .graph6 import decode_graph6, encode_graph6
from .graphs import (
    ConeSpec,
    MultiGraph,
    components_and_bipartiteness,
    count_subgraphs,
    degree_profile,
    format_spec_text,
    parse_spec_text,
    realize,
    t_bar_f_bar,
)
from .eigen import (
    QSpectrum,
    q_matrix,
    q_spectrum,
    spectrum_compare,
    sym_eigenvalues,
)
from .cones import (
    closed_spectrum,
    even_cycle_split_candidate,
    largest_q_eigenvalue,
    triangle_star_mate,
)
from .moments import (
    MomentVector,
    moments_closed_form,
    moments_from_counts,
    moments_from_spectrum,
    signature_moments,
    signatures_with_moments,
    solve_degree_system,
)
from .search import (
    ProbeResult,
    SearchHit,
    SearchReport,
    recognize_cone,
    run_probe,
    search_exhaustive,
    search_family,
)

__version__ = "0.1.0"
