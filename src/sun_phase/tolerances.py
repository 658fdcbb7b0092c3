"""Global numerical tolerances.

Three tiers: construction checks on exactly representable structure,
algebraic identities that only accumulate rounding error, and
comparisons limited by central-difference truncation.  `ATOL_FD_MATCH`,
sized for that last tier, also gates the exact cross-check of the two
Fubini-Study metric constructions in `coset.section`.
"""

ATOL_CONSTRUCTION = 1e-12  # Hermiticity, tracelessness, normalization of inputs
ATOL_IDENTITY = 1e-10      # unitarity of exponentials, completeness identity
ATOL_FRAME = 1e-8          # frame extraction, metric cross-checks
ATOL_FD_MATCH = 1e-6       # analytic vs central-difference agreement

FD_STEP = 1e-5             # central-difference step (coordinates are O(1) angles)

P_MIN = 1e-12              # below this the phase of an amplitude is undefined
P_GRAD = 1e-8              # below this the gradient formulas are ill-conditioned
P_BRIDGE = 1e-6            # below this coset.bridge_residuals refuses a section point

CHART_MARGIN = 1e-3        # margin kept from chart-singular loci

# The named checks of each command with their default gates: the CLI
# reports exactly these names, in this order, leaving out those a run did
# not measure.  `--tol NAME=VALUE` may override only the checks of the
# command it is given to.  Four gates equal a library guard on the same
# residual, which raises (exit 1) first, so a larger override cannot loosen
# them: fs-metric-agreement (`coset.section`), gradient-lower-bound
# (`PhaseGradient`), fourier-reconstruction and eigenvalue-cap (superosc).
CHECK_GATES = {
    "verify-group": {
        "phase-identity": 1e-8,
        "modulus-identity": 1e-8,
        "orthogonality": 1e-8,
        "reconstruction": 1e-8,
        "gradient-lower-bound": 1e-9,
    },
    "verify-ray": {
        "ray-phase-identity": 1e-5,
        "ray-modulus-identity": 1e-5,
        "ray-orthogonality": 1e-5,
        "u1-berry-proportionality": 1e-8,
        "fs-metric-agreement": 1e-6,
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
        "superoscillatory-at-zero": 1e-9,
        "eigenvalue-cap": 1e-9,
        "fourier-reconstruction": 1e-9,
    },
    "vortex": {"winding": 0.0},
}
