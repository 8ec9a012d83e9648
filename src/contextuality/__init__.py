"""Measures of contextuality via exact rational linear programming.

Given a system of random variables recorded in multiple contexts, this
package computes how far the system is from the nearest consistently
connected single-indexed approximation (the ``present`` measure), the
coupling-based connection-misalignment measure (``cbd``), and the minimal
negative mass of a signed reproducing joint (``np`` / ``np_inside``), all
with exact rational arithmetic and independently verifiable optimality
certificates.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

from .analytic import (
    BinaryStats,
    DeltaP,
    MedianResult,
    build_delta_p_lp,
    bunch_set_distance,
    coupling_mismatch_lp,
    cyclic2_min_partial,
    delta0_cbd,
    delta0_present,
    delta_p,
    delta_p_via_lp,
    max_coupling_probability,
    median_binary,
    min_mismatch,
    per_context_min_delta,
    pmf_from_mean,
    tv_distance,
)
from .builders import (
    METHODS,
    MeasureReport,
    ProblemSizes,
    build_cbd_lp,
    build_fixed_model_lp,
    build_lp,
    build_np_inside_lp,
    build_np_lp,
    build_present_lp,
    measure,
    problem_sizes,
)
from .examples import EprModel, ab_system, disjoint_support_system, epr_model, pr_box
from .io import (
    bundled_path,
    dump_lp,
    parse_lp,
    parse_system,
    parse_system_text,
    write_system,
    write_system_text,
)
from .lp import (
    LinearProgram,
    LpSolution,
    solve_certified,
    solve_exact,
    verify_certificate,
)
from .system import (
    Connection,
    ConsistencyReport,
    Context,
    Pmf,
    Property,
    System,
    connection_of,
    consistency_report,
    expectation,
    marginal,
    point_mass,
    product_expectation,
    validate_system,
)

# The oracle (random systems, the float cross-check, selftest) is loaded
# on first use, so a process that only measures never compiles it.
_ORACLE = ("CrossCheck", "SystemShape", "brute_force_max_coupling", "build_max_coupling_lp",
           "cross_check", "random_system", "run_selftest", "solve_float")


def __getattr__(name: str):
    if name == "oracle" or name in _ORACLE:
        oracle = _import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [name for name in dir() if not name.startswith("_")] + ["oracle", *_ORACLE]
