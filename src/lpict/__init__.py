"""lpict: a logic-guarded process-calculus toolkit for protocol analysis.

The package combines a small process calculus (parsing, structural
congruence, reduction), a propositional proof kernel (truth tables,
natural-deduction checking and search), guarded transition systems whose
states carry corresponding events, a chain analysis framework that walks
a transition chain and matches ideal against non-ideal traces, and
executable models of the TLS 1.3 handshake and Diffie-Hellman exchange.
"""

from . import analysis, guarded, kmp, logic, models, pi, report, trees
from .analysis import (
    AnalysisOutcome,
    DualVerdict,
    Judgments,
    TraceSymbol,
    analyze_protocol,
    build_state_tree,
    chain_states,
    dual_environment_verdict,
    entailment_judgment,
    partial_order_check,
)
from .errors import (
    AtomBudgetError,
    BranchingPathError,
    FragmentError,
    LpictError,
    MissingEnvironmentError,
    ParseError,
    ValidationError,
)
from .guarded import (
    Event,
    EventMessage,
    Guard,
    GuardedLTS,
    GuardedTransition,
    ResistTag,
    StateNode,
    build_guarded_lts,
    check_precondition,
)
from .kmp import failure_function, kmp_match
from .models import (
    BUILTIN_MODELS,
    AttackerCapability,
    EnvironmentConfig,
    ProtocolModel,
    apply_environment,
    builtin_dh,
    builtin_tls13,
    load_model,
    render_model,
    with_attackers,
)
from .report import build_dual_report, build_single_report, render_report
from .trees import StateTreeNode, bfs_traverse, build_event_tree, eval_event_tree, event_leaves

__version__ = "0.1.0"
