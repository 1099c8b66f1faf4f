"""Exact spin-chain dynamics and randomized-measurement probes of scrambling."""

__version__ = "0.1.0"

from .qhilbert import (  # noqa: F401
    DensityOperator,
    SiteSubset,
    Spectrum,
    StateVector,
    basis_state,
    partial_trace,
    purity,
)
from .models import (  # noqa: F401
    DisorderRealization,
    ModelSpec,
    build_hamiltonian,
    build_mbl,
    build_mfim,
    build_pxp,
    build_tfim,
    draw_disorder,
)
from .evolve import evolve, make_propagator  # noqa: F401
from .infotheory import (  # noqa: F401
    Ensemble,
    chi_q,
    haar_moment_mc,
    holevo_chi,
    q2_contour,
    q2_purity,
    q2_spectral,
    subentropy,
    von_neumann,
)
from .shadows import (  # noqa: F401
    Chi2Estimate,
    MoMConfig,
    ShadowSet,
    chi2_estimate_many,
    sample_shadow_set,
)
from .scramble import (  # noqa: F401
    GridResult,
    ScrambleScenario,
    exact_chi2_pair,
    exact_metric_grid,
    mbl_cage_compare,
    prepare_ensemble,
    shadow_metric_curve,
)
from .cliffordverify import (  # noqa: F401
    clifford_convergence_experiment,
    enumerate_c1,
    purity_from_basis_sampling,
    random_clifford_circuit,
)
