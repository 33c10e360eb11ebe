"""Spectral gaps of Hill's operator -y'' + q y on the unit circle.

Six layers, importable separately or through this namespace:

  * weights: submultiplicative weight families and their growth calculus;
  * seqspace: Fourier-side potentials and half-integer coefficient vectors;
  * floquet: the monodromy/discriminant oracle for periodic, antiperiodic
    and Sturm-Liouville eigenvalues;
  * ladder: the oracle's arbitrary-precision Taylor scheme in fixed point,
    the one module that imports mpmath;
  * blockdecomp: the 2x2 block reduction, adapted coefficients and N-gap
    approximants;
  * harness / verify / cli: config runs, the verification claims, the CLI.

Each layer loads where a route first reaches it.  The floquet names below
resolve on first access (module __getattr__), so importing the package or
the CLI loads no oracle; floquet loads the ladder, and with it mpmath, only
where a solve first leaves doubles; a table run loads no verify.  The block
reduction and the adapted map run without floquet.
"""

# harness first, the largest compile of an import where no bytecode is cached:
# before numpy loads, its parse memory is reused (after, peak RSS read ~1 MB higher)
from .harness import (
    ConfigError,
    ExperimentConfig,
    build_potential,
    build_weight,
    parse_config,
    rows_to_csv,
    run_table,
    run_verify,
)
from .weights import (
    Weight,
    check_submultiplicative,
    classify_growth,
    exponential,
    gevrey,
    log_tempered,
    polynomial,
    psi,
    psi_continuous,
    superexp,
    table_weight,
    temper,
    trivial,
)
from .seqspace import (
    FourierPotential,
    ParityVector,
    make_fourier,
    make_gasymov,
    make_mathieu,
    make_random,
    multiply_by_potential,
    tail,
    truncate,
    unit_vector,
    wnorm,
)
from .blockdecomp import (
    BlockData,
    ContractionError,
    DomainError,
    IterationError,
    MapResult,
    adapted_map,
    alpha_fixed_point,
    apply_Tn,
    c_series_terms,
    coeff_an_cn,
    gap_block,
    invert_adapted_map,
    n_gap_approximant,
    resolve_hat_Tn,
)

__version__ = "0.1.0"

_FLOQUET = ("GapRecord", "MonodromyMatrix", "RootSearchError", "discriminant", "gap_record",
            "monodromy", "periodic_eigs", "periodic_eigs_info", "sturm_liouville_eig")


def __getattr__(name):
    # the oracle loads on first access to it or to one of its names; a
    # relative "from . import floquet" would ask this hook for floquet again
    if name == "floquet" or name in _FLOQUET:
        import hillgap.floquet as floquet
        return floquet if name == "floquet" else getattr(floquet, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "floquet", *_FLOQUET})
