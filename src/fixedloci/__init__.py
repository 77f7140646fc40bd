"""fixedloci: torus fixed-point decomposition of GIT quotients.

Exact-arithmetic computations of stability, toric quotient fans, quiver
cover enumeration, and fixed-point component certification.
"""

__version__ = "0.1.0"

from .common import Status
from .cones import RationalCone, project_onto_cone
from .hmtorus import (
    MValue,
    WeightedAction,
    WeightItem,
    adapted_one_ps,
    is_semistable_support,
    is_stable_support,
    limit_cone,
    m_value,
)
from .linalg import IntMatrix, cokernel_with_section, hnf, smith
from .toric import (
    FixedComponent,
    RhoMap,
    ToricFan,
    enumerate_linear_maps,
    fixed_points_toric,
    quotient_fan,
    rho_from_stable_subset,
    s_rho,
    toric_context,
)
from .quiver import (
    Arrow,
    ArrowWeights,
    CoverVector,
    Quiver,
    component_dimension,
    enumerate_covers,
)
from .repfield import (
    RepFq,
    certify_component,
    is_stable_rep,
)
from .grassmann import GrassmannComponent, GrassmannProblem, classify, component_count

__all__ = [
    "Status",
    "RationalCone",
    "project_onto_cone",
    "MValue",
    "WeightedAction",
    "WeightItem",
    "adapted_one_ps",
    "is_semistable_support",
    "is_stable_support",
    "limit_cone",
    "m_value",
    "IntMatrix",
    "cokernel_with_section",
    "hnf",
    "smith",
    "FixedComponent",
    "RhoMap",
    "ToricFan",
    "enumerate_linear_maps",
    "fixed_points_toric",
    "quotient_fan",
    "rho_from_stable_subset",
    "s_rho",
    "toric_context",
    "Arrow",
    "ArrowWeights",
    "CoverVector",
    "Quiver",
    "component_dimension",
    "enumerate_covers",
    "RepFq",
    "certify_component",
    "is_stable_rep",
    "GrassmannComponent",
    "GrassmannProblem",
    "classify",
    "component_count",
]
