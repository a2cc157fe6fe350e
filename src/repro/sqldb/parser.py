"""Recursive-descent parser for the engine's SQL dialect.

Grammar (informal)::

    statement := select (compound_op select)*
                 [ORDER BY order_list] [LIMIT int [OFFSET int]]
    compound_op := UNION [ALL] | EXCEPT | INTERSECT
    select    := SELECT [DISTINCT] items FROM table_ref join* [WHERE expr]
                 [GROUP BY expr_list] [HAVING expr]
                 [ORDER BY order_list] [LIMIT int [OFFSET int]]
    items     := '*' | item (',' item)*
    item      := expr [AS ident]
    table_ref := ident [AS ident]
    join      := [INNER] JOIN table_ref ON expr
    expr      := or_expr
    or_expr   := and_expr (OR and_expr)*
    and_expr  := not_expr (AND not_expr)*
    not_expr  := NOT not_expr | predicate
    predicate := additive [comparison | IN | BETWEEN | LIKE | IS NULL]
                 | EXISTS '(' select ')'
    additive  := term (('+'|'-') term)*
    term      := factor (('*'|'/') factor)*
    factor    := literal | column | function | case | '(' expr-or-select ')'
                 | '-'factor
    case      := CASE [expr] (WHEN expr THEN expr)+ [ELSE expr] END
    function  := ident '(' [DISTINCT] args ')' [OVER '(' window ')']
    window    := [PARTITION BY expr_list] [ORDER BY order_list]

Compound operators are left-associative, sqlite-style: ``ORDER BY`` /
``LIMIT`` may only follow the *last* block (they then apply to the whole
compound, resolving against the leftmost block's output columns), and
``EXCEPT ALL`` / ``INTERSECT ALL`` are rejected like sqlite rejects
them.  Subqueries remain single-block.

DDL is limited to ``CREATE TABLE`` (see :func:`parse_create_table`)::

    create_table := CREATE TABLE ident '(' column_def (',' column_def)* ')' [';']
    column_def   := ident type_name (PRIMARY KEY | NOT NULL | NULL)*

Every parse entry point returns :mod:`repro.sqldb.ast` nodes; round-trips
through :meth:`~repro.sqldb.ast.SqlNode.to_sql` are tested property-style.

Each produced node carries a :class:`~repro.sqldb.ast.Span` covering its
source text, attached outside the dataclass protocol (see ``SqlNode.span``)
so that AST equality — which exact-match metrics rely on — ignores
formatting differences between otherwise identical statements.  Parse
errors report 1-based line/column alongside the character offset.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple, TypeVar

from .ast import (
    Between,
    BinaryOp,
    CaseExpr,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Join,
    Literal,
    OrderItem,
    SelectItem,
    SelectStatement,
    SetOperation,
    Span,
    SqlNode,
    Star,
    Statement,
    SubqueryExpr,
    TableRef,
    UnaryOp,
    WindowFunction,
)
from .errors import ParseError
from .lexer import Token, tokenize
from .schema import Column, TableSchema
from .types import DataType

_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")

#: Accepted type names in CREATE TABLE column definitions (lexed as plain
#: identifiers — type names are not reserved words in this dialect).
_TYPE_NAMES = {
    "integer": DataType.INTEGER,
    "int": DataType.INTEGER,
    "float": DataType.FLOAT,
    "real": DataType.FLOAT,
    "double": DataType.FLOAT,
    "text": DataType.TEXT,
    "varchar": DataType.TEXT,
    "string": DataType.TEXT,
    "boolean": DataType.BOOLEAN,
    "bool": DataType.BOOLEAN,
    "date": DataType.DATE,
}

_NodeT = TypeVar("_NodeT", bound=SqlNode)


def parse_select(sql: str) -> Statement:
    """Parse ``sql`` into a :class:`~repro.sqldb.ast.SelectStatement` or,
    when compound operators (``UNION``/``EXCEPT``/``INTERSECT``) join
    several blocks, a :class:`~repro.sqldb.ast.SetOperation`.

    Raises :class:`~repro.sqldb.errors.ParseError` with line/column info
    on malformed input or trailing junk.
    """
    parser = _Parser(tokenize(sql))
    stmt = parser.statement()
    parser.expect_eof()
    return stmt


def parse_expression(sql: str) -> Expr:
    """Parse a standalone expression (used by tests and the IR compiler)."""
    parser = _Parser(tokenize(sql))
    expr = parser.expression()
    parser.expect_eof()
    return expr


def parse_create_table(sql: str) -> TableSchema:
    """Parse a ``CREATE TABLE`` statement into a :class:`TableSchema`.

    Grammar::

        create_table := CREATE TABLE ident '(' column_def (',' column_def)* ')' [';']
        column_def   := ident type_name constraint*
        constraint   := PRIMARY KEY | NOT NULL | NULL

    ``CREATE``, ``TABLE``, ``PRIMARY``, ``KEY`` and type names are not
    reserved words in this dialect, so they are matched as identifiers
    (case-insensitively); ``NOT``/``NULL`` are real keywords.  The result
    round-trips with :meth:`TableSchema.to_ddl` — in particular ``NOT
    NULL`` survives into :attr:`Column.nullable`, which the static
    inference pass (:mod:`repro.sqldb.inference`) uses to prove
    predicates never NULL (``col IS NOT NULL`` always true).
    """
    # ';' is not a lexer operator; the statement terminator is optional.
    text = sql.rstrip().rstrip(";")
    parser = _Parser(tokenize(text))
    schema = parser.create_table()
    parser.expect_eof()
    return schema


class _Parser:
    """Token-stream cursor with one-token lookahead."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def _error(self, message: str, token: Token) -> ParseError:
        return ParseError(
            f"{message} at line {token.line}, column {token.col}",
            token.position,
            token.line,
            token.col,
        )

    def _spanned(self, node: _NodeT, start: Token) -> _NodeT:
        """Attach the source span ``[start, last consumed token)`` to ``node``.

        Uses ``object.__setattr__`` because the nodes are frozen
        dataclasses and ``span`` is intentionally not a dataclass field.
        """
        prev = self._tokens[self._pos - 1] if self._pos > 0 else start
        end = max(prev.end, start.position)
        object.__setattr__(node, "span", Span(start.position, end, start.line, start.col))
        return node

    def _check_keyword(self, *words: str) -> bool:
        token = self._peek()
        return token.kind == "keyword" and token.value in words

    def _match_keyword(self, *words: str) -> Optional[str]:
        if self._check_keyword(*words):
            return self._advance().value  # type: ignore[return-value]
        return None

    def _expect_keyword(self, word: str) -> None:
        token = self._advance()
        if token.kind != "keyword" or token.value != word:
            raise self._error(
                f"expected {word.upper()!r}, got {token.text or 'EOF'!r}", token
            )

    def _match_op(self, *ops: str) -> Optional[str]:
        token = self._peek()
        if token.kind == "op" and token.value in ops:
            self._advance()
            return token.value  # type: ignore[return-value]
        return None

    def _expect_op(self, op: str) -> None:
        token = self._advance()
        if token.kind != "op" or token.value != op:
            raise self._error(f"expected {op!r}, got {token.text or 'EOF'!r}", token)

    def _expect_ident(self) -> str:
        token = self._advance()
        if token.kind != "ident":
            raise self._error(
                f"expected identifier, got {token.text or 'EOF'!r}", token
            )
        return token.value  # type: ignore[return-value]

    def expect_eof(self) -> None:
        """Assert the whole input has been consumed."""
        token = self._peek()
        if token.kind != "eof":
            raise self._error(f"unexpected trailing input {token.text!r}", token)

    def _match_word(self, word: str) -> bool:
        """Consume an identifier token equal to ``word`` (case-insensitive).

        Used for CREATE TABLE vocabulary, which the lexer does not treat
        as keywords (SELECT queries may use e.g. ``key`` as a column name).
        """
        token = self._peek()
        if token.kind == "ident" and str(token.value).lower() == word:
            self._advance()
            return True
        return False

    def _expect_word(self, word: str) -> None:
        token = self._peek()
        if not self._match_word(word):
            raise self._error(
                f"expected {word.upper()!r}, got {token.text or 'EOF'!r}", token
            )

    # -- statement ----------------------------------------------------------

    def create_table(self) -> TableSchema:
        """Parse one ``CREATE TABLE`` statement into a :class:`TableSchema`."""
        self._expect_word("create")
        self._expect_word("table")
        name = self._expect_ident()
        self._expect_op("(")
        columns = [self._column_def()]
        while self._match_op(","):
            columns.append(self._column_def())
        self._expect_op(")")
        return TableSchema(name, columns)

    def _column_def(self) -> Column:
        name = self._expect_ident()
        token = self._advance()
        if token.kind != "ident" or str(token.value).lower() not in _TYPE_NAMES:
            raise self._error(
                f"expected a column type, got {token.text or 'EOF'!r}", token
            )
        dtype = _TYPE_NAMES[str(token.value).lower()]
        nullable = True
        primary_key = False
        while True:
            if self._match_word("primary"):
                self._expect_word("key")
                primary_key = True
                continue
            if self._match_keyword("not"):
                self._expect_keyword("null")
                nullable = False
                continue
            if self._match_keyword("null"):
                nullable = True
                continue
            break
        return Column(name, dtype, nullable=nullable, primary_key=primary_key)

    def statement(self) -> Statement:
        """Parse a full statement: one SELECT block or a compound chain.

        Compound operators associate left, matching sqlite.  A trailing
        ``ORDER BY``/``LIMIT`` is consumed by the last block's
        :meth:`select` call and then hoisted onto the compound node,
        because it orders/limits the whole result (resolving against the
        leftmost block's output columns — see the executor).  The same
        clauses *before* a compound operator are a parse error, as is
        ``EXCEPT ALL``/``INTERSECT ALL`` (unsupported in sqlite too).
        """
        start = self._peek()
        stmt: Statement = self.select()
        while self._check_keyword("union", "except", "intersect"):
            op_token = self._peek()
            last = stmt.right if isinstance(stmt, SetOperation) else stmt
            if last.order_by or last.limit is not None or last.offset is not None:
                raise self._error(
                    "ORDER BY/LIMIT must follow the last block of a compound query",
                    op_token,
                )
            op = str(self._advance().value)
            all_rows = False
            if self._check_keyword("all"):
                all_token = self._peek()
                if op != "union":
                    raise self._error(
                        f"{op.upper()} ALL is not supported", all_token
                    )
                self._advance()
                all_rows = True
            right = self.select()
            stmt = self._spanned(
                SetOperation(op=op, left=stmt, right=right, all_rows=all_rows),
                start,
            )
        if isinstance(stmt, SetOperation):
            last = stmt.right
            if last.order_by or last.limit is not None or last.offset is not None:
                stripped = replace(last, order_by=(), limit=None, offset=None)
                if getattr(last, "span", None) is not None:
                    object.__setattr__(stripped, "span", last.span)
                stmt = replace(
                    stmt,
                    right=stripped,
                    order_by=last.order_by,
                    limit=last.limit,
                    offset=last.offset,
                )
                stmt = self._spanned(stmt, start)
        return stmt

    def select(self) -> SelectStatement:
        """Parse one SELECT block (without enclosing parentheses)."""
        start = self._peek()
        self._expect_keyword("select")
        distinct = self._match_keyword("distinct") is not None
        items = self._select_items()
        from_table: Optional[TableRef] = None
        joins: List[Join] = []
        where = group_by = having = None
        order_by: List[OrderItem] = []
        limit: Optional[int] = None
        offset: Optional[int] = None
        group_exprs: Tuple[Expr, ...] = ()
        if self._match_keyword("from"):
            from_table = self._table_ref()
            while True:
                join_start = self._peek()
                if self._match_keyword("inner"):
                    self._expect_keyword("join")
                elif not self._match_keyword("join"):
                    break
                table = self._table_ref()
                self._expect_keyword("on")
                condition = self.expression()
                joins.append(self._spanned(Join(table, condition), join_start))
        if self._match_keyword("where"):
            where = self.expression()
        if self._match_keyword("group"):
            self._expect_keyword("by")
            exprs = [self.expression()]
            while self._match_op(","):
                exprs.append(self.expression())
            group_exprs = tuple(exprs)
        if self._match_keyword("having"):
            having = self.expression()
        if self._match_keyword("order"):
            self._expect_keyword("by")
            order_by.append(self._order_item())
            while self._match_op(","):
                order_by.append(self._order_item())
        if self._match_keyword("limit"):
            limit = self._row_count_clause("LIMIT")
            if self._match_keyword("offset"):
                offset = self._row_count_clause("OFFSET")
        return self._spanned(
            SelectStatement(
                select_items=tuple(items),
                from_table=from_table,
                joins=tuple(joins),
                where=where,
                group_by=group_exprs,
                having=having,
                order_by=tuple(order_by),
                limit=limit,
                offset=offset,
                distinct=distinct,
            ),
            start,
        )

    def _row_count_clause(self, clause: str) -> int:
        """The non-negative integer after LIMIT/OFFSET, with a
        span-carrying error for negative or non-integer values."""
        token = self._peek()
        if token.kind == "op" and token.value == "-":
            nxt = self._tokens[self._pos + 1]
            if nxt.kind == "number":
                raise self._error(
                    f"{clause} must not be negative, got -{nxt.text}", token
                )
        token = self._advance()
        if token.kind != "number" or not isinstance(token.value, int):
            raise self._error(f"{clause} expects an integer", token)
        return token.value

    def _select_items(self) -> List[SelectItem]:
        items = [self._select_item()]
        while self._match_op(","):
            items.append(self._select_item())
        return items

    def _select_item(self) -> SelectItem:
        start = self._peek()
        if self._match_op("*"):
            return self._spanned(SelectItem(self._spanned(Star(), start)), start)
        expr = self.expression()
        alias = None
        if self._match_keyword("as"):
            alias = self._expect_ident()
        elif self._peek().kind == "ident":
            alias = self._expect_ident()
        return self._spanned(SelectItem(expr, alias), start)

    def _table_ref(self) -> TableRef:
        start = self._peek()
        name = self._expect_ident()
        alias = None
        if self._match_keyword("as"):
            alias = self._expect_ident()
        elif self._peek().kind == "ident":
            alias = self._expect_ident()
        return self._spanned(TableRef(name, alias), start)

    def _order_item(self) -> OrderItem:
        start = self._peek()
        expr = self.expression()
        direction = "asc"
        word = self._match_keyword("asc", "desc")
        if word:
            direction = word
        return self._spanned(OrderItem(expr, direction), start)

    # -- expressions ----------------------------------------------------------

    def expression(self) -> Expr:
        """Parse a boolean expression (entry point for WHERE/HAVING/ON)."""
        return self._or_expr()

    def _or_expr(self) -> Expr:
        start = self._peek()
        left = self._and_expr()
        while self._match_keyword("or"):
            left = self._spanned(BinaryOp("OR", left, self._and_expr()), start)
        return left

    def _and_expr(self) -> Expr:
        start = self._peek()
        left = self._not_expr()
        while self._match_keyword("and"):
            left = self._spanned(BinaryOp("AND", left, self._not_expr()), start)
        return left

    def _not_expr(self) -> Expr:
        start = self._peek()
        if self._match_keyword("not"):
            return self._spanned(UnaryOp("NOT", self._not_expr()), start)
        return self._predicate()

    def _predicate(self) -> Expr:
        start = self._peek()
        if self._check_keyword("exists"):
            self._advance()
            self._expect_op("(")
            sub = self.select()
            self._expect_op(")")
            return self._spanned(SubqueryExpr("exists", sub), start)
        left = self._additive()
        op = self._match_op(*_COMPARISONS)
        if op:
            if self._peek().kind == "op" and self._peek().value == "(" and self._is_select_ahead():
                self._expect_op("(")
                sub = self.select()
                self._expect_op(")")
                return self._spanned(
                    SubqueryExpr("scalar", sub, operand=left, op=op), start
                )
            return self._spanned(BinaryOp(op, left, self._additive()), start)
        negated = False
        if self._check_keyword("not"):
            # Lookahead: NOT IN / NOT BETWEEN / NOT LIKE
            nxt = self._tokens[self._pos + 1]
            if nxt.kind == "keyword" and nxt.value in ("in", "between", "like"):
                self._advance()
                negated = True
        if self._match_keyword("in"):
            self._expect_op("(")
            if self._is_select_here():
                sub = self.select()
                self._expect_op(")")
                return self._spanned(
                    SubqueryExpr("not_in" if negated else "in", sub, operand=left),
                    start,
                )
            items = [self._additive()]
            while self._match_op(","):
                items.append(self._additive())
            self._expect_op(")")
            return self._spanned(InList(left, tuple(items), negated=negated), start)
        if self._match_keyword("between"):
            low = self._additive()
            self._expect_keyword("and")
            high = self._additive()
            return self._spanned(Between(left, low, high, negated=negated), start)
        if self._match_keyword("like"):
            like = BinaryOp("LIKE", left, self._additive())
            like = self._spanned(like, start)
            if negated:
                return self._spanned(UnaryOp("NOT", like), start)
            return like
        if self._match_keyword("is"):
            neg = self._match_keyword("not") is not None
            token = self._advance()
            if token.kind != "keyword" or token.value != "null":
                raise self._error("expected NULL after IS", token)
            return self._spanned(IsNull(left, negated=neg), start)
        return left

    def _is_select_here(self) -> bool:
        return self._check_keyword("select")

    def _is_select_ahead(self) -> bool:
        token = self._tokens[self._pos + 1]
        return token.kind == "keyword" and token.value == "select"

    def _additive(self) -> Expr:
        start = self._peek()
        left = self._term()
        while True:
            op = self._match_op("+", "-")
            if not op:
                return left
            left = self._spanned(BinaryOp(op, left, self._term()), start)

    def _term(self) -> Expr:
        start = self._peek()
        left = self._factor()
        while True:
            op = self._match_op("*", "/")
            if not op:
                return left
            left = self._spanned(BinaryOp(op, left, self._factor()), start)

    def _factor(self) -> Expr:
        token = self._peek()
        if token.kind == "op" and token.value == "-":
            self._advance()
            operand = self._factor()
            # fold "-5" into a negative literal so ASTs round-trip
            if isinstance(operand, Literal) and isinstance(operand.value, (int, float)):
                return self._spanned(Literal(-operand.value), token)
            return self._spanned(UnaryOp("-", operand), token)
        if token.kind == "op" and token.value == "(":
            self._advance()
            if self._is_select_here():
                sub = self.select()
                self._expect_op(")")
                return self._spanned(SubqueryExpr("scalar", sub), token)
            expr = self.expression()
            self._expect_op(")")
            return expr
        if token.kind == "number":
            self._advance()
            return self._spanned(Literal(token.value), token)
        if token.kind == "string":
            self._advance()
            return self._spanned(Literal(token.value), token)
        if token.kind == "keyword" and token.value in ("true", "false"):
            self._advance()
            return self._spanned(Literal(token.value == "true"), token)
        if token.kind == "keyword" and token.value == "null":
            self._advance()
            return self._spanned(Literal(None), token)
        if token.kind == "keyword" and token.value == "case":
            return self._case_expr()
        if token.kind == "ident":
            return self._identifier_expr()
        raise self._error(f"unexpected token {token.text or 'EOF'!r}", token)

    def _case_expr(self) -> Expr:
        """``CASE [operand] WHEN ... THEN ... [ELSE ...] END``.

        The operand is present iff the token after CASE is not WHEN
        (simple vs. searched form); at least one WHEN/THEN pair is
        required, END always is.
        """
        start = self._peek()
        self._expect_keyword("case")
        operand: Optional[Expr] = None
        if not self._check_keyword("when"):
            operand = self.expression()
        token = self._peek()
        if not self._check_keyword("when"):
            raise self._error(
                f"expected WHEN in CASE, got {token.text or 'EOF'!r}", token
            )
        whens: List[Tuple[Expr, Expr]] = []
        while self._match_keyword("when"):
            condition = self.expression()
            self._expect_keyword("then")
            result = self.expression()
            whens.append((condition, result))
        default: Optional[Expr] = None
        if self._match_keyword("else"):
            default = self.expression()
        self._expect_keyword("end")
        return self._spanned(CaseExpr(operand, tuple(whens), default), start)

    def _identifier_expr(self) -> Expr:
        start = self._peek()
        name = self._expect_ident()
        if self._peek().kind == "op" and self._peek().value == "(":
            self._advance()
            distinct = self._match_keyword("distinct") is not None
            args: Tuple[Expr, ...]
            if self._match_op("*"):
                self._expect_op(")")
                args = (Star(),)
            elif self._match_op(")"):
                args = ()
            else:
                parsed = [self.expression()]
                while self._match_op(","):
                    parsed.append(self.expression())
                self._expect_op(")")
                args = tuple(parsed)
            if self._check_keyword("over"):
                return self._window_function(name.lower(), args, distinct, start)
            return self._spanned(FuncCall(name.lower(), args, distinct=distinct), start)
        if self._match_op("."):
            if self._match_op("*"):
                return self._spanned(Star(table=name), start)
            column = self._expect_ident()
            return self._spanned(ColumnRef(column, table=name), start)
        return self._spanned(ColumnRef(name), start)

    def _window_function(
        self, name: str, args: Tuple[Expr, ...], distinct: bool, start: Token
    ) -> Expr:
        """``OVER ( [PARTITION BY exprs] [ORDER BY items] )`` after a call."""
        over_token = self._peek()
        self._expect_keyword("over")
        if distinct:
            raise self._error(
                "DISTINCT is not supported in window functions", over_token
            )
        self._expect_op("(")
        partition_by: List[Expr] = []
        if self._match_keyword("partition"):
            self._expect_keyword("by")
            partition_by.append(self.expression())
            while self._match_op(","):
                partition_by.append(self.expression())
        order_by: List[OrderItem] = []
        if self._match_keyword("order"):
            self._expect_keyword("by")
            order_by.append(self._order_item())
            while self._match_op(","):
                order_by.append(self._order_item())
        self._expect_op(")")
        return self._spanned(
            WindowFunction(name, args, tuple(partition_by), tuple(order_by)),
            start,
        )
