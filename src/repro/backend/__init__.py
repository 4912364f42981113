"""Pluggable execution backends for I-SQL sessions (Section 5 realized).

``ISQLSession(backend="explicit")`` materializes world-sets (Figure 3);
``ISQLSession(backend="inline")`` evaluates on the inlined
representation and never enumerates worlds. See :mod:`repro.backend.base`
for the contract and :mod:`repro.backend.testing` for the differential
harness that keeps the two in agreement.
"""

from repro.backend.base import (
    Backend,
    BaseQueryResult,
    ExecutionContext,
    create_backend,
)
from repro.backend.explicit import ExplicitBackend, QueryResult
from repro.backend.inline import InlineBackend, InlineQueryResult
from repro.relational.guards import collect_phases, phase

__all__ = [
    "Backend",
    "BaseQueryResult",
    "ExecutionContext",
    "ExplicitBackend",
    "InlineBackend",
    "InlineQueryResult",
    "QueryResult",
    "collect_phases",
    "create_backend",
    "phase",
]
