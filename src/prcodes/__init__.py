"""Codes from maximum-length LFSR subsequences: construction, weight
distributions, distance bounds, and ML-decoding simulation."""

from .awgn import SimConfig, SimResult, ml_decode, simulate_wer
from .bounds import (
    DminReport,
    dmin_bound,
    ebno_db_to_gamma,
    gv_distance,
    qfunc,
    union_bound,
    verify_existence,
)
from .construct import (
    PrCode,
    build_code,
    verify_disjoint,
)
from .errors import (
    InconsistentEnumeratorError,
    TheoremViolationError,
    UnsupportedRangeError,
)
from .gf2 import (
    BitPoly,
    enumerate_primitives,
    factorize,
    is_primitive,
)
from .weights import (
    RealDistribution,
    WeightEnumerator,
    avg_dual_approx,
    avg_primal_approx,
    ensemble_average_exact,
    ensemble_average_primal,
    ensemble_enumerators,
    kld,
    krawtchouk,
    macwilliams,
    n_multiples,
    weight_enumerator_exact,
)

__version__ = "0.1.0"
