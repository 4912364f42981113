"""Algebraic optimization of world-set algebra queries (Section 6)."""

from repro.optimizer.equivalences import (
    DEFAULT_RULES,
    FINALIZE_RULES,
    RewriteRule,
    cert_via_domain,
    cert_via_poss,
    default_rules,
    poss_via_cert,
)
from repro.optimizer.rewriter import RewriteStep, Rewriter, optimize

__all__ = [
    "DEFAULT_RULES",
    "FINALIZE_RULES",
    "RewriteRule",
    "RewriteStep",
    "Rewriter",
    "cert_via_domain",
    "cert_via_poss",
    "default_rules",
    "optimize",
    "poss_via_cert",
]
