"""Exact-arithmetic classification of nets of conics over even-order fields.

The geometry: the quadric Veronese surface in PG(5,q), q even, has a nucleus
plane.  Planes of PG(5,q) meeting that nucleus plane fall into 18 orbits
under the induced PGL(3,q) action, and those orbits are in bijection (via a
duality carrying planes to nets) with the projective equivalence classes of
nets of conics containing a double line.  This package builds the orbit
atlas, classifies arbitrary planes and nets into it, and re-verifies the
bookkeeping (orbit sizes, stabilizers, point distributions, cubic invariants,
line-orbit splits) from scratch by exhaustive or sampled computation.
"""

import types

from .atlas import (
    EMPTY_BASE_LABELS,
    LABELS,
    SCHEMA,
    classify_net,
    classify_plane,
    example_net,
    expected_point_distribution,
    expected_stabilizer_order,
    net_base_points,
    net_double_line_count,
    net_of_plane,
    orbit_atlas,
    plane_of_net,
    plane_stabilizer_order,
    planes_meeting_nucleus_count,
    representative,
    representative_parameters,
    representative_pattern,
    representatives,
    signature_table,
    verify_distributions,
    verify_double_lines,
    verify_known_net,
    verify_line_orbits,
    verify_partition,
)
from .errors import (
    ClassificationError,
    ConfigurationError,
    OutOfFamilyError,
    ResourceBudgetError,
    VerificationError,
)
from .gf import GF, field
from .invariants import (
    CUBIC_KINDS,
    PlaneSignature,
    cubic_form,
    cubic_points,
    cubic_type,
    line_class_profile,
    nucleus_meet_dim,
    plane_key,
    plane_signature,
    point_class_counts,
)
from .projgeom import (
    Subspace,
    gaussian_binomial,
    join,
    meet,
    pg_points,
    plane_from_pattern,
    span,
)
from .veronese import (
    POINT_CLASSES,
    census,
    classify_conic,
    delta,
    expected_census,
    form_eval,
    form_from_str,
    form_to_str,
    nucleus_plane,
    point_class,
    veronese,
)
from .action import (
    k_equivalent,
    orbit_keys,
    pgl_elements,
    pgl_order,
)

__version__ = "0.1.0"

# Every name imported above; the submodules that the imports bind are left out.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
__all__.append("__version__")
