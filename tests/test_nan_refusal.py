"""Every tolerance check refuses NaN, which compares False with anything,
and the finiteness checks refuse inf as well."""

import numpy as np
import pytest

from scramblescope.evolve import make_propagator
from scramblescope.models import DisorderRealization, ModelSpec, draw_disorder
from scramblescope.qhilbert import (
    DensityOperator,
    HermitianOperator,
    Spectrum,
    StateVector,
)
from scramblescope.scramble import ScrambleScenario

NAN = float("nan")
INF = float("inf")

CASES = {
    "state": lambda: StateVector(1, [NAN, 0.0]),
    "hermitian": lambda: HermitianOperator(2, [[1.0, NAN], [NAN, 1.0]]),
    "density": lambda: DensityOperator(2, [[0.5, NAN], [NAN, 0.5]]),
    "density_inf": lambda: DensityOperator(2, [[INF, 0.0], [0.0, 0.5]]),
    "spectrum": lambda: Spectrum([NAN, 1.0]),
    "spectrum_inf": lambda: Spectrum([INF, 0.0]),
    "make_propagator": lambda: make_propagator(HermitianOperator(2, np.diag([NAN, 1.0]))),
    "disorder_fields": lambda: DisorderRealization(np.array([NAN, 0.5]), 0, 8.0),
    "disorder_width": lambda: draw_disorder(4, W=NAN),
    "time_grid": lambda: ScrambleScenario(
        model=ModelSpec(kind="TFIM", n_sites=4),
        initial_kind="polarized",
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
