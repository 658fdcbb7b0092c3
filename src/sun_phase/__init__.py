"""Numerical toolkit for phase/modulus gradient identities of SU(n)
transition amplitudes in the defining representation.

Builds the su(n) generator stack and group-manifold charts, extracts
left-invariant frames and the bi-invariant metric, decomposes
amplitudes into modulus and phase, and verifies the exact identities
tying their gradients together, on the full group and on ray-space
sections, including vortex winding around amplitude zeros and
superoscillatory phase behavior of one-parameter subgroups.
"""

__version__ = "0.1.0"

from .algebra import (
    StatePair,
    build_gellmann_basis,
    completeness_residual,
    expm_generator,
    haar_state,
)
from .amplitude import (
    PhaseGradient,
    PolarAmplitude,
    RelationResiduals,
    VortexWinding,
    group_relation_residuals,
    min_gradient_bound,
    phase_gradient,
    phase_gradient_fd,
    polar_amplitude,
    principal_angle,
    reconstruct_modulus,
    vortex_winding,
)
from .charts import (
    Chart,
    FrameAtPoint,
    MetricAtPoint,
    ck_metric,
    exp_chart,
    fd_partials,
    left_invariant_frame,
    left_translate,
    partials,
    su2_polar_chart,
)
from .coset import (
    BridgeResult,
    CartanFrame,
    SectionPoint,
    bridge_residuals,
    build_cartan_frame,
    ck_block_decomposition_residual,
    coset_element,
    factorization_residual,
    full_cartan_chart,
    ray_relation_residuals,
    section,
    u1_berry_residuals,
    u1_eigenvalue,
)
from .superosc import (
    NormalizedGenerator,
    PhaseTrace,
    SuperoscillationReport,
    aligned_generator,
    fourier_coefficients,
    local_frequency,
    normalized_generator,
    phase_trace,
    superoscillation_report,
)

__all__ = [
    "__version__",
    "StatePair",
    "build_gellmann_basis",
    "completeness_residual",
    "expm_generator",
    "haar_state",
    "PhaseGradient",
    "PolarAmplitude",
    "RelationResiduals",
    "VortexWinding",
    "group_relation_residuals",
    "min_gradient_bound",
    "phase_gradient",
    "phase_gradient_fd",
    "polar_amplitude",
    "principal_angle",
    "reconstruct_modulus",
    "vortex_winding",
    "Chart",
    "FrameAtPoint",
    "MetricAtPoint",
    "ck_metric",
    "exp_chart",
    "fd_partials",
    "left_invariant_frame",
    "left_translate",
    "partials",
    "su2_polar_chart",
    "BridgeResult",
    "CartanFrame",
    "SectionPoint",
    "bridge_residuals",
    "build_cartan_frame",
    "ck_block_decomposition_residual",
    "coset_element",
    "factorization_residual",
    "full_cartan_chart",
    "ray_relation_residuals",
    "section",
    "u1_berry_residuals",
    "u1_eigenvalue",
    "NormalizedGenerator",
    "PhaseTrace",
    "SuperoscillationReport",
    "aligned_generator",
    "fourier_coefficients",
    "local_frequency",
    "normalized_generator",
    "phase_trace",
    "superoscillation_report",
]
