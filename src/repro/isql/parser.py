"""Recursive-descent parser for I-SQL (the grammar of Figure 1).

Entry points: :func:`parse_statement` for one statement,
:func:`parse_script` for a ``;``-separated sequence, and
:func:`parse_query` when a bare select is expected.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.isql import ast
from repro.isql.lexer import Token, tokenize

_AGGREGATES = ("sum", "count", "min", "max", "avg")
_COMPARATORS = ("=", "!=", "<", "<=", ">", ">=")


def _number(token: Token) -> int | float:
    """The value of a number token; several dots (``1.2.3``) are an error."""
    text = token.text
    if "." not in text:
        return int(text)
    if text.count(".") > 1:
        raise ParseError(f"malformed number {text!r}", token.position)
    return float(text)


class Parser:
    """Parses a token stream into I-SQL statements."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.index = 0
        self._alias_counter = 0

    # -- token plumbing ------------------------------------------------------------

    # The index never passes the final "eof" token (advance stops there),
    # so the current token is always ``self.tokens[self.index]``.

    def peek(self, offset: int = 0) -> Token:
        if offset:
            return self.tokens[min(self.index + offset, len(self.tokens) - 1)]
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != "eof":
            self.index += 1
        return token

    def check(self, kind: str, text: str | None = None) -> bool:
        token = self.tokens[self.index]
        return token.kind == kind and (text is None or token.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        token = self.tokens[self.index]
        if token.kind == kind and (text is None or token.text == text):
            if kind != "eof":
                self.index += 1
            return token
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        token = self.accept(kind, text)
        if token is None:
            actual = self.peek()
            wanted = text or kind
            raise ParseError(
                f"expected {wanted!r}, found {actual.text or actual.kind!r}",
                actual.position,
            )
        return token

    def _fresh_alias(self) -> str:
        self._alias_counter += 1
        return f"_t{self._alias_counter}"

    # -- source spans -------------------------------------------------------------

    def _mark(self) -> int:
        """The source offset where the next construct starts."""
        return self.peek().position

    def _span(self, start: int) -> tuple[int, int]:
        """The span from *start* to the end of the last consumed token.

        Spans let diagnostics (``isql.explain.inline_route_report``)
        point at the clause that leaves the evaluatable fragment rather
        than just naming it.
        """
        token = self.tokens[max(self.index - 1, 0)]
        return (start, token.position + len(token.text))

    # -- statements ---------------------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        if self.check("keyword", "select"):
            return self.parse_select()
        if self.check("keyword", "create"):
            return self._parse_create_view()
        if self.check("keyword", "insert"):
            return self._parse_insert()
        if self.check("keyword", "delete"):
            return self._parse_delete()
        if self.check("keyword", "update"):
            return self._parse_update()
        if self.check("ident") and self.peek(1).kind == "symbol" and self.peek(1).text == "<-":
            name = self.advance().text
            self.expect("symbol", "<-")
            return ast.Assignment(name, self.parse_select())
        token = self.peek()
        raise ParseError(f"unexpected statement start {token.text!r}", token.position)

    def _parse_create_view(self) -> ast.CreateView:
        self.expect("keyword", "create")
        self.expect("keyword", "view")
        name = self.expect("ident").text
        self.expect("keyword", "as")
        return ast.CreateView(name, self.parse_select())

    def _parse_insert(self) -> ast.Insert:
        start = self._mark()
        self.expect("keyword", "insert")
        self.expect("keyword", "into")
        name = self.expect("ident").text
        self.expect("keyword", "values")
        self.expect("symbol", "(")
        values = [self._parse_literal_value()]
        while self.accept("symbol", ","):
            values.append(self._parse_literal_value())
        self.expect("symbol", ")")
        return ast.Insert(name, tuple(values), span=self._span(start))

    def _parse_literal_value(self) -> object:
        if self.check("string"):
            return self.advance().text
        negative = bool(self.accept("symbol", "-"))
        token = self.expect("number")
        value = _number(token)
        return -value if negative else value

    def _parse_delete(self) -> ast.Delete:
        start = self._mark()
        self.expect("keyword", "delete")
        self.expect("keyword", "from")
        name = self.expect("ident").text
        where = self._parse_condition() if self.accept("keyword", "where") else None
        return ast.Delete(name, where, span=self._span(start))

    def _parse_update(self) -> ast.Update:
        start = self._mark()
        self.expect("keyword", "update")
        name = self.expect("ident").text
        self.expect("keyword", "set")
        settings = [self._parse_set_clause()]
        while self.accept("symbol", ","):
            settings.append(self._parse_set_clause())
        where = self._parse_condition() if self.accept("keyword", "where") else None
        return ast.Update(name, tuple(settings), where, span=self._span(start))

    def _parse_set_clause(self) -> ast.SetClause:
        attribute = self.expect("ident").text
        self.expect("symbol", "=")
        return ast.SetClause(attribute, self._parse_value())

    # -- select queries ---------------------------------------------------------------------

    def parse_select(self) -> ast.SelectQuery:
        self.expect("keyword", "select")
        closing = None
        if self.accept("keyword", "possible"):
            closing = "possible"
        elif self.accept("keyword", "certain"):
            closing = "certain"
        select_list = self._parse_select_list()
        self.expect("keyword", "from")
        from_items = [self._parse_from_item()]
        while self.accept("symbol", ","):
            from_items.append(self._parse_from_item())
        where = self._parse_condition() if self.accept("keyword", "where") else None

        group_by: tuple[str, ...] = ()
        group_by_span: tuple[int, int] | None = None
        choice_of: tuple[str, ...] = ()
        repair: tuple[str, ...] = ()
        group_worlds: ast.GroupWorldsBy | None = None
        while True:
            if self.check("keyword", "group") and self.peek(1).text == "by":
                start = self._mark()
                self.advance()
                self.advance()
                group_by = self._parse_attr_list()
                group_by_span = self._span(start)
            elif self.check("keyword", "choice"):
                self.advance()
                self.expect("keyword", "of")
                choice_of = self._parse_attr_list()
            elif self.check("keyword", "repair"):
                self.advance()
                self.expect("keyword", "by")
                self.expect("keyword", "key")
                repair = self._parse_attr_list()
            elif self.check("keyword", "group") and self.peek(1).text == "worlds":
                start = self._mark()
                self.advance()
                self.advance()
                self.expect("keyword", "by")
                clause = self._parse_group_worlds_by()
                group_worlds = ast.GroupWorldsBy(
                    clause.attributes, clause.query, self._span(start)
                )
            else:
                break
        return ast.SelectQuery(
            select_list=select_list,
            from_items=tuple(from_items),
            where=where,
            group_by=group_by,
            choice_of=choice_of,
            repair_by_key=repair,
            group_worlds_by=group_worlds,
            closing=closing,
            group_by_span=group_by_span,
        )

    def _parse_group_worlds_by(self) -> ast.GroupWorldsBy:
        if self.accept("symbol", "("):
            if self.check("keyword", "select"):
                query = self.parse_select()
                self.expect("symbol", ")")
                return ast.GroupWorldsBy(query=query)
            attrs = [self._parse_attr_name()]
            while self.accept("symbol", ","):
                attrs.append(self._parse_attr_name())
            self.expect("symbol", ")")
            return ast.GroupWorldsBy(attributes=tuple(attrs))
        return ast.GroupWorldsBy(attributes=self._parse_attr_list())

    def _parse_attr_list(self) -> tuple[str, ...]:
        attrs = [self._parse_attr_name()]
        while self.accept("symbol", ","):
            attrs.append(self._parse_attr_name())
        return tuple(attrs)

    def _parse_attr_name(self) -> str:
        first = self.expect("ident").text
        if self.accept("symbol", "."):
            return f"{first}.{self.expect('ident').text}"
        return first

    def _parse_select_list(self) -> tuple[ast.SelectItem, ...] | ast.Star:
        if self.accept("symbol", "*"):
            return ast.Star()
        items = [self._parse_select_item()]
        while self.accept("symbol", ","):
            items.append(self._parse_select_item())
        return tuple(items)

    def _parse_select_item(self) -> ast.SelectItem:
        start = self._mark()
        expression = self._parse_value()
        alias = None
        if self.accept("keyword", "as"):
            alias = self.expect("ident").text
        elif self.check("ident") and not self.check("keyword"):
            alias = self.advance().text
        return ast.SelectItem(expression, alias, self._span(start))

    def _parse_from_item(self) -> ast.FromItem:
        if self.accept("symbol", "("):
            query = self.parse_select()
            self.expect("symbol", ")")
            self.accept("keyword", "as")
            alias_token = self.accept("ident")
            alias = alias_token.text if alias_token else self._fresh_alias()
            return ast.SubqueryRef(query, alias)
        name = self.expect("ident").text
        self.accept("keyword", "as")
        alias_token = self.accept("ident")
        alias = alias_token.text if alias_token else name
        return ast.TableRef(name, alias)

    # -- conditions ----------------------------------------------------------------------------

    def _parse_condition(self) -> ast.Condition:
        return self._parse_or()

    def _parse_or(self) -> ast.Condition:
        left = self._parse_and()
        while self.accept("keyword", "or"):
            left = ast.BoolOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Condition:
        left = self._parse_not()
        while self.accept("keyword", "and"):
            left = ast.BoolOp("and", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Condition:
        start = self._mark()
        if self.accept("keyword", "not"):
            if self.accept("keyword", "exists"):
                query = self._parse_parenthesized_query()
                return ast.ExistsSubquery(query, True, self._span(start))
            return ast.NotOp(self._parse_not())
        if self.accept("keyword", "exists"):
            query = self._parse_parenthesized_query()
            return ast.ExistsSubquery(query, False, self._span(start))
        return self._parse_comparison()

    def _parse_parenthesized_query(self) -> ast.SelectQuery:
        self.expect("symbol", "(")
        query = self.parse_select()
        self.expect("symbol", ")")
        return query

    def _parse_in_operand(self) -> ast.SelectQuery:
        """A subquery, or a bare relation name as in the paper's
        ``where Dep in Hometowns`` (sugar for ``select * from name``)."""
        if self.check("ident"):
            name = self.advance().text
            return ast.SelectQuery(
                select_list=ast.Star(),
                from_items=(ast.TableRef(name, name),),
            )
        return self._parse_parenthesized_query()

    def _parse_comparison(self) -> ast.Condition:
        if self.check("symbol", "(") and self._starts_condition_group():
            self.advance()
            condition = self._parse_condition()
            self.expect("symbol", ")")
            return condition
        start = self._mark()
        left = self._parse_value()
        if self.accept("keyword", "not"):
            self.expect("keyword", "in")
            operand = self._parse_in_operand()
            return ast.InSubquery(left, operand, True, self._span(start))
        if self.accept("keyword", "in"):
            operand = self._parse_in_operand()
            return ast.InSubquery(left, operand, False, self._span(start))
        token = self.tokens[self.index]
        if token.kind == "symbol" and token.text in _COMPARATORS:
            self.advance()
            return ast.Comparison(token.text, left, self._parse_value())
        raise ParseError(
            f"expected a comparison operator, found {token.text!r}", token.position
        )

    def _starts_condition_group(self) -> bool:
        """Heuristic: does '(' open a boolean group rather than a value?

        A parenthesized *value* is either a scalar subquery (starts with
        ``select``) or an arithmetic group; a boolean group eventually
        contains a boolean keyword or comparison at depth 1 before the
        matching ')'. We scan ahead conservatively.
        """
        depth = 0
        offset = 0
        saw_comparator = False
        while True:
            token = self.peek(offset)
            if token.kind == "eof":
                return False
            if token.kind == "symbol" and token.text == "(":
                depth += 1
            elif token.kind == "symbol" and token.text == ")":
                depth -= 1
                if depth == 0:
                    return saw_comparator
            elif depth == 1:
                if token.kind == "keyword" and token.text in ("select",):
                    return False
                if token.kind == "keyword" and token.text in ("and", "or", "not", "in", "exists"):
                    saw_comparator = True
                if token.kind == "symbol" and token.text in _COMPARATORS:
                    saw_comparator = True
            offset += 1

    # -- value expressions ------------------------------------------------------------------------

    def _parse_value(self) -> ast.ValueExpr:
        return self._parse_additive()

    def _parse_additive(self) -> ast.ValueExpr:
        left = self._parse_multiplicative()
        while self.check("symbol", "+") or self.check("symbol", "-"):
            op = self.advance().text
            left = ast.Arithmetic(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> ast.ValueExpr:
        left = self._parse_primary_value()
        while self.check("symbol", "*") or self.check("symbol", "/"):
            op = self.advance().text
            left = ast.Arithmetic(op, left, self._parse_primary_value())
        return left

    def _parse_primary_value(self) -> ast.ValueExpr:
        if self.check("keyword") and self.peek().text in _AGGREGATES:
            function = self.advance().text
            self.expect("symbol", "(")
            if self.accept("symbol", "*"):
                argument = None
            else:
                argument = self._parse_column()
            self.expect("symbol", ")")
            return ast.Aggregate(function, argument)
        if self.check("symbol", "("):
            if self.peek(1).kind == "keyword" and self.peek(1).text == "select":
                start = self._mark()
                query = self._parse_parenthesized_query()
                return ast.ScalarSubquery(query, self._span(start))
            self.advance()
            value = self._parse_value()
            self.expect("symbol", ")")
            return value
        if self.check("string"):
            return ast.Literal(self.advance().text)
        if self.check("number"):
            token = self.advance()
            value = _number(token)
            return ast.Literal(value)
        if self.check("symbol", "-"):
            self.advance()
            token = self.expect("number")
            value = _number(token)
            return ast.Literal(-value)
        return self._parse_column()

    def _parse_column(self) -> ast.Column:
        first = self.expect("ident").text
        if self.accept("symbol", "."):
            return ast.Column(first, self.expect("ident").text)
        return ast.Column(None, first)


def parse_statement(source: str) -> ast.Statement:
    """Parse exactly one statement (a trailing ``;`` is allowed).

    Entry points re-raise :class:`ParseError` with the source attached,
    upgrading bare-offset messages to line/column + a caret-annotated
    snippet of the offending line.
    """
    try:
        parser = Parser(tokenize(source))
        statement = parser.parse_statement()
        parser.accept("symbol", ";")
        parser.expect("eof")
    except ParseError as error:
        raise error.with_source(source) from None
    return statement


def parse_query(source: str) -> ast.SelectQuery:
    """Parse a select query, rejecting other statement kinds."""
    statement = parse_statement(source)
    if not isinstance(statement, ast.SelectQuery):
        raise ParseError("expected a select query")
    return statement


def parse_script(source: str) -> list[ast.Statement]:
    """Parse a ``;``-separated sequence of statements.

    Like :func:`parse_statement`, parse errors come back located
    against *source* (line/column + caret snippet).
    """
    try:
        parser = Parser(tokenize(source))
        statements: list[ast.Statement] = []
        while not parser.check("eof"):
            statements.append(parser.parse_statement())
            if not parser.accept("symbol", ";"):
                break
        parser.expect("eof")
    except ParseError as error:
        raise error.with_source(source) from None
    return statements
