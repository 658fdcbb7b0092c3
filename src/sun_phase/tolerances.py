"""Global numerical tolerances and the named report gates.

Three tiers: construction checks on exactly representable structure,
algebraic identities that only accumulate rounding error, and
comparisons limited by central-difference truncation.  `ATOL_FD_MATCH`,
sized for that last tier, also gates the exact cross-check of the two
Fubini-Study metric constructions in `coset.section`.  A report gate
that a library check also applies is one constant, read by both.
"""

ATOL_CONSTRUCTION = 1e-12  # Hermiticity, tracelessness, normalization of inputs
ATOL_IDENTITY = 1e-10      # unitarity of exponentials, completeness identity
ATOL_FRAME = 1e-8          # frame extraction, metric cross-checks
ATOL_FD_MATCH = 1e-6       # analytic vs central-difference agreement

FD_STEP = 1e-5             # central-difference step (coordinates are O(1) angles)

P_MIN = 1e-12              # below this the phase of an amplitude is undefined
P_GRAD = 1e-8              # below this the gradient formulas are ill-conditioned
P_BRIDGE = 1e-6            # below this coset.bridge_residuals refuses a section point
P_SKIP = 1e-6              # group sweeps skip points below this squared amplitude
P_SKIP_RAY = 1e-4          # ray sweeps: the section derivatives are exact, so the
                           # residuals carry rounding error ~1/p only; a lower value
                           # would admit harder points and change what a seed reports
P_OVERLAP = 1e-8           # overlap threshold for a usable gradient direction (superosc)
P_TRACE = 1e-10            # amplitude threshold for local-frequency evaluation (superosc)

CHART_MARGIN = 1e-3        # margin kept from chart-singular loci

# the slack of a library check that is also its report gate
GATE_GRADIENT_LOWER_BOUND = 1e-9      # |grad eta|^2 below 2(n-1)/n (amplitude.PhaseGradient)
GATE_EIGENVALUE_CAP = 1e-9            # eigenvalue above sqrt(2(n-1)/n) (normalized_generator)
GATE_FOURIER_RECONSTRUCTION = 1e-9    # Fourier sum against the trace (superosc.phase_trace)
GATE_SUPEROSCILLATORY_AT_ZERO = 1e-9  # omega(0) below the cap (superoscillation_report)

# The named checks of each command with their default gates: the CLI
# reports exactly these names, in this order, leaving out those a run did
# not measure.  `--tol NAME=VALUE` may override only the checks of the
# command it is given to.  Five gates are their library check's constant
# (the GATE_* above, and ATOL_FD_MATCH in `coset.section`); every one of
# those checks but superoscillatory-at-zero raises (exit 1) first, so a
# larger override cannot loosen them.
CHECK_GATES = {
    "verify-group": {
        "phase-identity": 1e-8,
        "modulus-identity": 1e-8,
        "orthogonality": 1e-8,
        "reconstruction": 1e-8,
        "gradient-lower-bound": GATE_GRADIENT_LOWER_BOUND,
    },
    "verify-ray": {
        "ray-phase-identity": 1e-5,
        "ray-modulus-identity": 1e-5,
        "ray-orthogonality": 1e-5,
        "u1-berry-proportionality": 1e-8,
        "fs-metric-agreement": ATOL_FD_MATCH,
        "factorization": 1e-9,
        "bridge-phase": 1e-4,
        "bridge-mixed": 1e-4,
        "bridge-modulus": 1e-4,
        "u1-phase-rate": 1e-6,
        "u1-frame-component": 1e-8,
    },
    "su2-demo": {
        "closed-form-modulus": 1e-10,
        "closed-form-phase": 1e-10,
        "gradient-inverse-modulus": 1e-10,
    },
    "superosc": {
        "superoscillatory-at-zero": GATE_SUPEROSCILLATORY_AT_ZERO,
        "eigenvalue-cap": GATE_EIGENVALUE_CAP,
        "fourier-reconstruction": GATE_FOURIER_RECONSTRUCTION,
    },
    "vortex": {"winding": 0.0},
}
