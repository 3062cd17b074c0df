"""finkern: exact kernel calculus on finite state spaces.

Kernels over the semiring [0, oo] with exact rational entries, the
copy/delete structure of finite probability, order-theoretic tooling
(absolute continuity, meets, Lebesgue decompositions, Radon-Nikodym
derivatives), and constructions with decidable correctness checks for
Metropolis-Hastings-type Markov chains.

The names of ``coproducts``, ``sampler`` and ``modelfile`` load on first
use, so a process that never touches them never compiles them. Those of
``modelfile`` are ``ModelDocument``, ``ModelError``, ``emit`` and
``parse``. The CLI imports ``modelfile`` itself, and ``coproducts`` and
``sampler`` only in the subcommands that use them.
"""

from .semiring import INF, ONE, ZERO, ExtNonneg, SemiringDivisionError
from .spaces import EMPTY, UNIT, FinSpace, Tagged, product, product_many
from .kernels import (
    Involution, Kernel, SpaceMismatchError, associator, compose, copy, delete,
    deterministic, dirac, effect, effect_mul, from_maps, graph, identity,
    is_copyable, is_normalized, is_substochastic, lazy_involution,
    left_unitor, lift_involution, measure, pushforward, reweight,
    right_unitor, row_mass, swap, tensor, uniform,
)
from .enrichment import (
    Decomposition, NoExactDerivative, NotAbsolutelyContinuous,
    NotCancellative, abs_cont, ae_equal, equivalent, involutive_decompose,
    is_cancellative, is_finite_morphism, is_singular, kernel_zero,
    lebesgue_decompose, leq_kernel, meet, rn_derivative,
    support_labels,
)
from .mcmc import (
    BALANCING_FUNCTIONS, BARKER, METROPOLIS, BalancingFunction, MhProblem,
    TheoremFlags, augment_reversible, balancing_alpha, bayesian_inverse,
    build_mh, build_skew_mh, check_balancing, classical_mh,
    exchange_algorithm, first_summand_reversible, gibbs, gibbs_site_kernels,
    is_invariant, is_reversible, is_skew_reversible, verify_mh_theorem,
    verify_skew_theorem,
)

__version__ = "0.1.0"

#: the names that load on first use, each with its module
_LAZY = {
    **dict.fromkeys(("copair", "distributivity_iso", "injection", "oplus"), "coproducts"),
    **dict.fromkeys(("ChainRun", "empirical", "run_chain", "to_float", "tv_distance"),
                    "sampler"),
    **dict.fromkeys(("ModelDocument", "ModelError", "emit", "parse"), "modelfile"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib  # here, so that dir(finkern) does not list it
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
