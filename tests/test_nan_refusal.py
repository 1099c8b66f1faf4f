"""Every tolerance check refuses NaN, which compares False with anything,
and the finiteness checks refuse inf as well."""

import numpy as np
import pytest

from scramblescope.evolve import make_propagator
from scramblescope.models import DisorderRealization, ModelSpec, build_tfim, draw_disorder
from scramblescope import scramble
from scramblescope.qhilbert import DensityOperator, Spectrum, StateVector, reduced_offsets
from scramblescope.scramble import METRIC_NAMES, ScrambleScenario

NAN = float("nan")
INF = float("inf")

CASES = {
    "state": lambda: StateVector(1, [NAN, 0.0]),
    # H is Hermitian because its coefficients are real and finite
    "hermitian": lambda: build_tfim(2, J=NAN),
    "density": lambda: DensityOperator(2, [[0.5, NAN], [NAN, 0.5]]),
    "density_inf": lambda: DensityOperator(2, [[INF, 0.0], [0.0, 0.5]]),
    "spectrum": lambda: Spectrum([NAN, 1.0]),
    # the stacked exact layer checks its reduced states as they are formed
    "amplitude_stack": lambda: scramble._stacked_metrics(
        np.full((2, 4), NAN, dtype=complex), *reduced_offsets(2, np.array([[0], [1]])), METRIC_NAMES
    ),
    "chi2_stack": lambda: scramble.exact_chi2_pair(
        np.full((3, 2, 2), NAN, dtype=complex), np.tile(np.eye(2, dtype=complex) / 2, (3, 1, 1))
    ),
    "spectrum_inf": lambda: Spectrum([INF, 0.0]),
    "make_propagator": lambda: make_propagator(build_tfim(2, J=1j)),
    "disorder_fields": lambda: DisorderRealization(np.array([NAN, 0.5]), 0, 8.0),
    "disorder_width": lambda: draw_disorder(4, W=NAN),
    "time_grid": lambda: ScrambleScenario(
        model=ModelSpec(kind="TFIM", n_sites=4),
        perturbation_site=2,
        subsystem_size=1,
        time_grid=[0.0, NAN],
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
def test_nan_is_refused(case):
    with pytest.raises(ValueError):
        CASES[case]()
