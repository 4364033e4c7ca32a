"""Desk-scale verification of thermal correlation decay bounds for
Hubbard-type lattice fermions: exact Fock traces, Berezin/Wick Grassmann
integrals, covariance identities and the analytic envelopes, side by side."""

from .lattice import (
    DOWN,
    UP,
    LatticeSpec,
    TimeGrid,
    enumerate_momenta,
    enumerate_sites,
    periodic_reduce,
)
from .model import (
    InteractionCoefficients,
    LambdaCoefficients,
    ModelParams,
    check_smallness,
    decay_base,
    hubbard_interaction,
    hubbard_threshold,
    load_model,
    save_model,
)
from .covariance import CovarianceSpec, covariance_matrix, covariance_value
from .fock import CorrelationQuery, FockSpace, correlation, query
from .grassmann import (
    GrassmannIndexSpace,
    GrassmannPolynomial,
    SchwingerEngine,
    berezin_gaussian,
)
from .bounds import (
    covariance_l1_D,
    det_bound_sample,
    prop41_bound,
    prop42_bound,
    verify_taylor_bounds,
    verify_theorem_envelope,
)

__version__ = "0.1.0"
