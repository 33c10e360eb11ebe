"""Spectral gaps of Hill's operator -y'' + q y on the unit circle.

Six layers, importable separately or through this namespace:

  * weights: submultiplicative weight families, each built whole by its
    factory with its log-weight and growth class, and the psi calculus;
  * seqspace: Fourier-side potentials and half-integer coefficient vectors;
  * floquet: the monodromy/discriminant oracle for periodic, antiperiodic
    and Sturm-Liouville eigenvalues;
  * ladder: the oracle's arbitrary-precision Taylor scheme in fixed point,
    the one module that imports mpmath;
  * blockdecomp: the 2x2 block reduction, adapted coefficients and N-gap
    approximants;
  * harness / verify / cli: config runs, the verification claims, the CLI.

Each layer loads where a route first reaches it.  The floquet and weights
names in _LAZY resolve on first access (module __getattr__), so importing
the package or the CLI loads neither the oracle nor the weights; floquet
loads the ladder, and with it mpmath, only where a solve first leaves
doubles; harness loads weights where a config names a weight or a decay,
and verify loads them for every claim; a table run loads no verify.  The
block reduction and the adapted map run without floquet or weights.
"""

import importlib

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

_LAZY = {
    "floquet": ("GapRecord", "MonodromyMatrix", "RootSearchError", "discriminant",
                "gap_record", "monodromy", "periodic_eigs", "periodic_eigs_info",
                "sturm_liouville_eig"),
    "weights": ("Weight", "check_submultiplicative", "classify_growth", "exponential",
                "gevrey", "log_tempered", "polynomial", "psi", "psi_continuous", "superexp",
                "table_weight", "temper", "trivial"),
}


def __getattr__(name):
    # a lazy layer loads on first access to it or to one of its names; a
    # relative "from . import floquet" would ask this hook for the layer again
    for layer, names in _LAZY.items():
        if name == layer or name in names:
            module = importlib.import_module(f"{__name__}.{layer}")
            return module if name == layer else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *(name for names in _LAZY.values() for name in names)})
