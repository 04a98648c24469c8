from ..guarded import ResistTag
from .core import (
    CAPABILITY_COUNTERS,
    IDEAL,
    NONIDEAL,
    AttackerCapability,
    EnvironmentConfig,
    ProtocolModel,
    apply_environment,
    with_attackers,
)
from .modelfile import (
    BUILTIN_MODELS,
    builtin_dh,
    builtin_tls13,
    bundled_model_text,
    load_model,
    render_model,
)

__all__ = [
    "BUILTIN_MODELS",
    "CAPABILITY_COUNTERS",
    "IDEAL",
    "NONIDEAL",
    "AttackerCapability",
    "EnvironmentConfig",
    "ProtocolModel",
    "ResistTag",
    "apply_environment",
    "builtin_dh",
    "builtin_tls13",
    "bundled_model_text",
    "load_model",
    "render_model",
    "with_attackers",
]
