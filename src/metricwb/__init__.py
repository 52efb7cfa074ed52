"""Exact-arithmetic workbench for comparing behavioural distances between
affine probabilistic lambda-terms: trace observations, a bisimulation
metric over the induced labelled Markov chain, and tuple observations.
"""

from .dist import Dist, Rational, dirac, frac_str
from .errors import (
    BudgetExceeded,
    CoefficientOverflow,
    InvalidAction,
    IsValue,
    MetricWbError,
    NonConvergence,
    NotAffine,
    NotClosed,
    ParseError,
    TypeCheckError,
    Unbounded,
)
from .kantorovich import PseudoMetric, lift_dual, lift_primal, solve_lp_exact
from .parser import parse
from .semantics import eval_big, eval_small, step_count_bound, step_one
from .terms import (
    Abs,
    App,
    Choice,
    LetPair,
    Omega,
    OMEGA,
    Pair,
    Term,
    Var,
    check_affine,
    encode_theta,
    identity,
    is_value,
    pretty,
    size,
    substitute,
)
from .trace import (
    AppAction,
    TensorAction,
    encode_theta_trace,
    enumerate_traces,
    format_trace,
    lts_trace_accept,
    parse_trace,
    trace_accept,
    trace_distance_lb,
)
from .bisim import LmcFragment, apply_F, bisim_distance, bisim_metric, build_lmc
from .tuples import (
    Appl,
    Cut,
    build_expair,
    build_mn_nn,
    build_sn,
    format_tuple_trace,
    parse_tuple_trace,
    program_tuple_trace_prob,
    tuple_distance_lb,
    u_seq,
)
from .types import infer, render_type

__all__ = [name for name in dir() if not name.startswith("_")]
