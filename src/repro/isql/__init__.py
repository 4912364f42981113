"""I-SQL: the paper's SQL analog for incomplete information."""

from repro.isql import ast
from repro.isql.compile import FragmentError, compile_query
from repro.isql.engine import Engine
from repro.isql.explain import (
    Explanation,
    RouteReport,
    explain,
    inline_route,
    inline_route_report,
    session_route,
    run_via_translation,
)
from repro.isql.lexer import Token, tokenize
from repro.isql.parser import parse_query, parse_script, parse_statement
from repro.isql.session import (
    ISQLSession,
    QueryResult,
    Savepoint,
    StatementResult,
)

__all__ = [
    "Engine",
    "Explanation",
    "FragmentError",
    "ISQLSession",
    "QueryResult",
    "RouteReport",
    "Savepoint",
    "StatementResult",
    "Token",
    "ast",
    "compile_query",
    "explain",
    "inline_route",
    "inline_route_report",
    "session_route",
    "parse_query",
    "parse_script",
    "parse_statement",
    "run_via_translation",
    "tokenize",
]
