"""ssetkit: exact computations on finite simplicial sets.

Simplicial and polynomial de Rham cohomology, barycentric subdivision with
its chain homotopy, presheaves on finite sites with sheafification, Kan
horn filling and fibration certificates, connection extension, and
Chern-Weil forms, all in exact rational arithmetic (one numeric operator,
clearly flagged).
"""

__version__ = "0.1.0"

from .errors import (
    CapExceededError,
    CompatibilityError,
    DomainError,
    ParameterError,
    SsetError,
    StructureError,
)
from .simplicial import (
    SimplicialMap,
    SimplicialSet,
    circle_two_edges,
    close_subcomplex,
    cyclic_table,
    from_generators,
    nerve,
    product,
    quotient,
    simplicial_complex,
    sphere_quotient,
    standard_boundary,
    standard_delta,
    standard_horn,
    truncate,
)
from .homology import (
    ChainComplex,
    chain_complex,
    cohomology_ring,
    homology,
    mayer_vietoris,
)
from .subdivision import (
    AffineChain,
    AffineSimplex,
    boundary,
    homotopy,
    iterated_diameter,
    subdivide,
)
from .forms import FormField, PolyForm, QTau, TAU, derham_map, whitney
from .derham import derham_cohomology
from .kan import (
    ExtraDegeneracy,
    check_extra_degeneracy,
    enumerate_horns,
    is_fibrant,
    is_fibration,
)
from .sheaves import (
    FiniteSite,
    Presheaf,
    check_status,
    separated_quotient,
    sheafify,
    union_intersection,
)
from .connections import (
    EdgeGluing,
    LieValuedForm,
    MatrixLieAlgebra,
    U1BundleData,
    abelian_line,
    chern_weil_form,
    curvature,
    extra_degeneracy_value,
    face_extend,
    gl,
    horn_connection_fill,
    sl2,
    u1_chern_number,
)
