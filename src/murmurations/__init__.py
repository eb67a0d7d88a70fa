"""Weight-aspect murmurations of level-1 holomorphic modular forms.

Computes the averaged Hecke-eigenvalue statistic over weight windows via the
Eichler-Selberg trace formula, the limiting measure on conductor-normalized
primes by two independent formulas, and the comparison data between them.
"""

from .arith import (
    AnalyticConductor,
    FactorSieve,
    analytic_conductor,
    build_factor_sieve,
    euler_constant_C,
    kronecker,
)
from .classnum import (
    ClassNumberTable,
    DiscriminantFactorization,
    L1_psi_D,
    L1_psi_bar,
    decompose_discriminant,
    load_class_numbers,
    psi_D,
    psi_bar_bruteforce,
    save_class_numbers,
    sieve_class_numbers,
    unit_count,
)
from .window import WindowFunction, cosine_progression_sum, make_window
from .trace import (
    TableBoundError,
    TraceContext,
    eigenvalue_sum_prime,
    trace_hecke,
)
from .qexp import IntegerPowerSeries, eisenstein, eta_power_24, newform_qexp, oracle_trace
from .murmur import (
    MurmurationRequest,
    MurmurationSeries,
    compute_series,
    cumulative_curve,
    dimension_S_k,
    integer_murmuration_nu,
)
from .nu import (
    Interval,
    NuEvaluation,
    evaluate_nu,
    nu_fourier,
    nu_rational,
    prop_circle_check,
    s_alpha_fourier,
    s_alpha_jump,
)

__version__ = "0.1.0"
