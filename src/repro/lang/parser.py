"""Recursive-descent parser for jsl.

Statements are parsed by dedicated methods; expressions use precedence
climbing.  The grammar is a pragmatic JavaScript subset — enough to express
the seven library workloads (prototype-based classes, object literals,
closures, mixins) without the full ECMAScript surface (no generators, no
``class`` syntax, no destructuring, no regex literals).
"""

from __future__ import annotations

from repro.lang import ast_nodes as ast
from repro.lang.errors import JSLSyntaxError, SourcePosition
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind

# Binary operator precedence, higher binds tighter.
_BINARY_PRECEDENCE: dict[TokenKind, int] = {
    TokenKind.OR: 1,
    TokenKind.AND: 2,
    TokenKind.BIT_OR: 3,
    TokenKind.BIT_XOR: 4,
    TokenKind.BIT_AND: 5,
    TokenKind.EQ: 6,
    TokenKind.NEQ: 6,
    TokenKind.STRICT_EQ: 6,
    TokenKind.STRICT_NEQ: 6,
    TokenKind.LT: 7,
    TokenKind.GT: 7,
    TokenKind.LE: 7,
    TokenKind.GE: 7,
    TokenKind.IN: 7,
    TokenKind.INSTANCEOF: 7,
    TokenKind.SHL: 8,
    TokenKind.SHR: 8,
    TokenKind.USHR: 8,
    TokenKind.PLUS: 9,
    TokenKind.MINUS: 9,
    TokenKind.STAR: 10,
    TokenKind.SLASH: 10,
    TokenKind.PERCENT: 10,
}

_COMPOUND_ASSIGN = {
    TokenKind.PLUS_ASSIGN: "+",
    TokenKind.MINUS_ASSIGN: "-",
    TokenKind.STAR_ASSIGN: "*",
    TokenKind.SLASH_ASSIGN: "/",
    TokenKind.PERCENT_ASSIGN: "%",
}


class Parser:
    """Parses a token stream into a :class:`~repro.lang.ast_nodes.Program`."""

    def __init__(self, tokens: list[Token], filename: str = "<script>"):
        self._tokens = tokens
        self._index = 0
        self._filename = filename

    # -- token helpers -----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        # ``_index`` never passes the final EOF token; a lookahead past it
        # reads EOF again.
        if offset:
            return self._tokens[min(self._index + offset, len(self._tokens) - 1)]
        return self._tokens[self._index]

    def _at(self, kind: TokenKind) -> bool:
        return self._tokens[self._index].kind is kind

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def _match(self, kind: TokenKind) -> Token | None:
        if self._at(kind):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, context: str = "") -> Token:
        token = self._peek()
        if token.kind is not kind:
            suffix = f" in {context}" if context else ""
            raise JSLSyntaxError(
                f"expected {kind.value!r} but found {token.kind.value!r}{suffix}",
                token.position,
            )
        return self._advance()

    def _consume_semicolon(self) -> None:
        """Require a statement terminator, tolerating `}` / EOF (ASI-lite)."""
        if self._match(TokenKind.SEMICOLON):
            return
        if self._at(TokenKind.RBRACE) or self._at(TokenKind.EOF):
            return
        token = self._peek()
        raise JSLSyntaxError(
            f"expected ';' but found {token.kind.value!r}", token.position
        )

    # -- program / statements ---------------------------------------------

    def parse_program(self) -> ast.Program:
        position = self._peek().position
        body: list[ast.Statement] = []
        while not self._at(TokenKind.EOF):
            body.append(self.parse_statement())
        return ast.Program(position=position, body=body, filename=self._filename)

    def parse_statement(self) -> ast.Statement:
        token = self._peek()
        kind = token.kind
        if kind in (TokenKind.VAR, TokenKind.LET, TokenKind.CONST):
            return self._parse_variable_declaration()
        if kind is TokenKind.FUNCTION:
            return self._parse_function_declaration()
        if kind is TokenKind.LBRACE:
            return self._parse_block()
        if kind is TokenKind.IF:
            return self._parse_if()
        if kind is TokenKind.WHILE:
            return self._parse_while()
        if kind is TokenKind.DO:
            return self._parse_do_while()
        if kind is TokenKind.FOR:
            return self._parse_for()
        if kind is TokenKind.RETURN:
            return self._parse_return()
        if kind is TokenKind.BREAK:
            self._advance()
            self._consume_semicolon()
            return ast.Break(position=token.position)
        if kind is TokenKind.CONTINUE:
            self._advance()
            self._consume_semicolon()
            return ast.Continue(position=token.position)
        if kind is TokenKind.THROW:
            self._advance()
            value = self.parse_expression()
            self._consume_semicolon()
            return ast.Throw(position=token.position, value=value)
        if kind is TokenKind.TRY:
            return self._parse_try()
        if kind is TokenKind.SWITCH:
            return self._parse_switch()
        if kind is TokenKind.SEMICOLON:
            self._advance()
            return ast.Block(position=token.position, statements=[])
        expression = self.parse_expression()
        self._consume_semicolon()
        return ast.ExpressionStatement(position=token.position, expression=expression)

    def _parse_variable_declaration(self) -> ast.VariableDeclaration:
        keyword = self._advance()
        declarators = self._parse_declarator_list()
        self._consume_semicolon()
        return ast.VariableDeclaration(
            position=keyword.position,
            kind=str(keyword.value),
            declarators=declarators,
        )

    def _parse_declarator_list(self) -> list[ast.VariableDeclarator]:
        declarators: list[ast.VariableDeclarator] = []
        while True:
            name_token = self._expect(TokenKind.IDENT, "variable declaration")
            init: ast.Expression | None = None
            if self._match(TokenKind.ASSIGN):
                init = self.parse_assignment()
            declarators.append(
                ast.VariableDeclarator(
                    name=str(name_token.value),
                    init=init,
                    position=name_token.position,
                )
            )
            if not self._match(TokenKind.COMMA):
                return declarators

    def _parse_function_declaration(self) -> ast.FunctionDeclaration:
        keyword = self._expect(TokenKind.FUNCTION)
        name_token = self._expect(TokenKind.IDENT, "function declaration")
        params = self._parse_parameter_list()
        body = self._parse_block()
        return ast.FunctionDeclaration(
            position=keyword.position,
            name=str(name_token.value),
            params=params,
            body=body,
        )

    def _parse_parameter_list(self) -> list[str]:
        self._expect(TokenKind.LPAREN, "parameter list")
        params: list[str] = []
        if not self._at(TokenKind.RPAREN):
            while True:
                token = self._expect(TokenKind.IDENT, "parameter list")
                params.append(str(token.value))
                if not self._match(TokenKind.COMMA):
                    break
        self._expect(TokenKind.RPAREN, "parameter list")
        return params

    def _parse_block(self) -> ast.Block:
        brace = self._expect(TokenKind.LBRACE, "block")
        statements: list[ast.Statement] = []
        while not self._at(TokenKind.RBRACE):
            if self._at(TokenKind.EOF):
                raise JSLSyntaxError("unterminated block", brace.position)
            statements.append(self.parse_statement())
        self._expect(TokenKind.RBRACE, "block")
        return ast.Block(position=brace.position, statements=statements)

    def _parse_if(self) -> ast.If:
        keyword = self._expect(TokenKind.IF)
        self._expect(TokenKind.LPAREN, "if condition")
        test = self.parse_expression()
        self._expect(TokenKind.RPAREN, "if condition")
        consequent = self.parse_statement()
        alternate: ast.Statement | None = None
        if self._match(TokenKind.ELSE):
            alternate = self.parse_statement()
        return ast.If(
            position=keyword.position,
            test=test,
            consequent=consequent,
            alternate=alternate,
        )

    def _parse_while(self) -> ast.While:
        keyword = self._expect(TokenKind.WHILE)
        self._expect(TokenKind.LPAREN, "while condition")
        test = self.parse_expression()
        self._expect(TokenKind.RPAREN, "while condition")
        body = self.parse_statement()
        return ast.While(position=keyword.position, test=test, body=body)

    def _parse_do_while(self) -> ast.DoWhile:
        keyword = self._expect(TokenKind.DO)
        body = self.parse_statement()
        self._expect(TokenKind.WHILE, "do-while")
        self._expect(TokenKind.LPAREN, "do-while condition")
        test = self.parse_expression()
        self._expect(TokenKind.RPAREN, "do-while condition")
        self._consume_semicolon()
        return ast.DoWhile(position=keyword.position, body=body, test=test)

    def _parse_for(self) -> ast.Statement:
        keyword = self._expect(TokenKind.FOR)
        self._expect(TokenKind.LPAREN, "for header")

        # Disambiguate for-in from the classic three-clause for.
        if self._looks_like_for_in():
            return self._parse_for_in(keyword.position)

        init: ast.Statement | None = None
        if not self._at(TokenKind.SEMICOLON):
            if self._peek().kind in (TokenKind.VAR, TokenKind.LET, TokenKind.CONST):
                decl_keyword = self._advance()
                declarators = self._parse_declarator_list()
                init = ast.VariableDeclaration(
                    position=decl_keyword.position,
                    kind=str(decl_keyword.value),
                    declarators=declarators,
                )
            else:
                expression = self.parse_expression()
                init = ast.ExpressionStatement(
                    position=expression.position, expression=expression
                )
        self._expect(TokenKind.SEMICOLON, "for header")

        test: ast.Expression | None = None
        if not self._at(TokenKind.SEMICOLON):
            test = self.parse_expression()
        self._expect(TokenKind.SEMICOLON, "for header")

        update: ast.Expression | None = None
        if not self._at(TokenKind.RPAREN):
            update = self.parse_expression()
        self._expect(TokenKind.RPAREN, "for header")

        body = self.parse_statement()
        return ast.For(
            position=keyword.position, init=init, test=test, update=update, body=body
        )

    def _looks_like_for_in(self) -> bool:
        """True for ``for (var k in …`` or ``for (k in …``."""
        if self._peek().kind in (TokenKind.VAR, TokenKind.LET, TokenKind.CONST):
            return (
                self._peek(1).kind is TokenKind.IDENT
                and self._peek(2).kind is TokenKind.IN
            )
        return (
            self._peek().kind is TokenKind.IDENT
            and self._peek(1).kind is TokenKind.IN
        )

    def _parse_for_in(self, position: SourcePosition) -> ast.ForIn:
        declares = False
        if self._peek().kind in (TokenKind.VAR, TokenKind.LET, TokenKind.CONST):
            self._advance()
            declares = True
        name_token = self._expect(TokenKind.IDENT, "for-in")
        self._expect(TokenKind.IN, "for-in")
        obj = self.parse_expression()
        self._expect(TokenKind.RPAREN, "for-in")
        body = self.parse_statement()
        return ast.ForIn(
            position=position,
            var_name=str(name_token.value),
            declares=declares,
            obj=obj,
            body=body,
        )

    def _parse_return(self) -> ast.Return:
        keyword = self._expect(TokenKind.RETURN)
        value: ast.Expression | None = None
        if not (
            self._at(TokenKind.SEMICOLON)
            or self._at(TokenKind.RBRACE)
            or self._at(TokenKind.EOF)
        ):
            value = self.parse_expression()
        self._consume_semicolon()
        return ast.Return(position=keyword.position, value=value)

    def _parse_try(self) -> ast.Try:
        keyword = self._expect(TokenKind.TRY)
        block = self._parse_block()
        catch_param: str | None = None
        catch_block: ast.Block | None = None
        finally_block: ast.Block | None = None
        if self._match(TokenKind.CATCH):
            self._expect(TokenKind.LPAREN, "catch clause")
            param_token = self._expect(TokenKind.IDENT, "catch clause")
            catch_param = str(param_token.value)
            self._expect(TokenKind.RPAREN, "catch clause")
            catch_block = self._parse_block()
        if self._match(TokenKind.FINALLY):
            finally_block = self._parse_block()
        if catch_block is None and finally_block is None:
            raise JSLSyntaxError(
                "try statement requires catch or finally", keyword.position
            )
        return ast.Try(
            position=keyword.position,
            block=block,
            catch_param=catch_param,
            catch_block=catch_block,
            finally_block=finally_block,
        )

    def _parse_switch(self) -> ast.Switch:
        keyword = self._expect(TokenKind.SWITCH)
        self._expect(TokenKind.LPAREN, "switch")
        discriminant = self.parse_expression()
        self._expect(TokenKind.RPAREN, "switch")
        self._expect(TokenKind.LBRACE, "switch body")
        cases: list[ast.SwitchCase] = []
        seen_default = False
        while not self._at(TokenKind.RBRACE):
            case_token = self._peek()
            test: ast.Expression | None
            if self._match(TokenKind.CASE):
                test = self.parse_expression()
            elif self._match(TokenKind.DEFAULT):
                if seen_default:
                    raise JSLSyntaxError(
                        "multiple default clauses", case_token.position
                    )
                seen_default = True
                test = None
            else:
                raise JSLSyntaxError(
                    "expected 'case' or 'default'", case_token.position
                )
            self._expect(TokenKind.COLON, "switch case")
            body: list[ast.Statement] = []
            while self._peek().kind not in (
                TokenKind.CASE,
                TokenKind.DEFAULT,
                TokenKind.RBRACE,
            ):
                body.append(self.parse_statement())
            cases.append(
                ast.SwitchCase(test=test, body=body, position=case_token.position)
            )
        self._expect(TokenKind.RBRACE, "switch body")
        return ast.Switch(
            position=keyword.position, discriminant=discriminant, cases=cases
        )

    # -- expressions --------------------------------------------------------

    def parse_expression(self) -> ast.Expression:
        """Full expression including the comma operator."""
        first = self.parse_assignment()
        if not self._at(TokenKind.COMMA):
            return first
        expressions = [first]
        while self._match(TokenKind.COMMA):
            expressions.append(self.parse_assignment())
        return ast.Sequence(position=first.position, expressions=expressions)

    def parse_assignment(self) -> ast.Expression:
        left = self._parse_conditional()
        token = self._peek()
        if token.kind is TokenKind.ASSIGN:
            self._advance()
            self._check_assignment_target(left)
            value = self.parse_assignment()
            return ast.Assignment(
                position=token.position, target=left, value=value, op="="
            )
        if token.kind in _COMPOUND_ASSIGN:
            self._advance()
            self._check_assignment_target(left)
            value = self.parse_assignment()
            return ast.Assignment(
                position=token.position,
                target=left,
                value=value,
                op=_COMPOUND_ASSIGN[token.kind],
            )
        return left

    @staticmethod
    def _check_assignment_target(node: ast.Expression) -> None:
        if not isinstance(
            node, (ast.Identifier, ast.MemberAccess, ast.IndexAccess)
        ):
            raise JSLSyntaxError("invalid assignment target", node.position)

    def _parse_conditional(self) -> ast.Expression:
        test = self._parse_binary(0)
        if not self._match(TokenKind.QUESTION):
            return test
        consequent = self.parse_assignment()
        self._expect(TokenKind.COLON, "conditional expression")
        alternate = self.parse_assignment()
        return ast.Conditional(
            position=test.position,
            test=test,
            consequent=consequent,
            alternate=alternate,
        )

    def _parse_binary(self, min_precedence: int) -> ast.Expression:
        left = self._parse_unary()
        while True:
            token = self._peek()
            precedence = _BINARY_PRECEDENCE.get(token.kind)
            if precedence is None or precedence < min_precedence:
                return left
            self._advance()
            right = self._parse_binary(precedence + 1)
            if token.kind in (TokenKind.AND, TokenKind.OR):
                left = ast.Logical(
                    position=token.position,
                    op=str(token.value),
                    left=left,
                    right=right,
                )
            else:
                left = ast.Binary(
                    position=token.position,
                    op=str(token.value),
                    left=left,
                    right=right,
                )

    def _parse_unary(self) -> ast.Expression:
        token = self._peek()
        if token.kind in (
            TokenKind.NOT,
            TokenKind.MINUS,
            TokenKind.PLUS,
            TokenKind.BIT_NOT,
        ):
            self._advance()
            operand = self._parse_unary()
            return ast.Unary(
                position=token.position, op=str(token.value), operand=operand
            )
        if token.kind is TokenKind.TYPEOF:
            self._advance()
            operand = self._parse_unary()
            return ast.TypeOf(position=token.position, operand=operand)
        if token.kind is TokenKind.DELETE:
            self._advance()
            operand = self._parse_unary()
            if not isinstance(operand, (ast.MemberAccess, ast.IndexAccess)):
                raise JSLSyntaxError(
                    "delete target must be a property access", token.position
                )
            return ast.Delete(position=token.position, target=operand)
        if token.kind in (TokenKind.PLUS_PLUS, TokenKind.MINUS_MINUS):
            self._advance()
            operand = self._parse_unary()
            self._check_assignment_target(operand)
            return ast.Update(
                position=token.position,
                op=str(token.value),
                operand=operand,
                prefix=True,
            )
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expression:
        expression = self._parse_call_or_member()
        token = self._peek()
        if token.kind in (TokenKind.PLUS_PLUS, TokenKind.MINUS_MINUS):
            self._advance()
            self._check_assignment_target(expression)
            return ast.Update(
                position=token.position,
                op=str(token.value),
                operand=expression,
                prefix=False,
            )
        return expression

    def _parse_call_or_member(self) -> ast.Expression:
        if self._at(TokenKind.NEW):
            return self._parse_new()
        expression = self._parse_primary()
        return self._parse_member_suffixes(expression)

    def _parse_new(self) -> ast.Expression:
        keyword = self._expect(TokenKind.NEW)
        if self._at(TokenKind.NEW):
            callee: ast.Expression = self._parse_new()
        else:
            callee = self._parse_primary()
        # Member accesses bind tighter than the `new` call arguments.
        while True:
            if self._match(TokenKind.DOT):
                prop_token = self._expect_property_name()
                callee = ast.MemberAccess(
                    position=prop_token.position,
                    obj=callee,
                    prop=str(prop_token.value),
                )
            elif self._at(TokenKind.LBRACKET):
                bracket = self._advance()
                index = self.parse_expression()
                self._expect(TokenKind.RBRACKET, "index access")
                callee = ast.IndexAccess(
                    position=bracket.position, obj=callee, index=index
                )
            else:
                break
        args: list[ast.Expression] = []
        if self._at(TokenKind.LPAREN):
            args = self._parse_arguments()
        new_expression = ast.New(position=keyword.position, callee=callee, args=args)
        return self._parse_member_suffixes(new_expression)

    def _parse_member_suffixes(self, expression: ast.Expression) -> ast.Expression:
        while True:
            if self._match(TokenKind.DOT):
                prop_token = self._expect_property_name()
                expression = ast.MemberAccess(
                    position=prop_token.position,
                    obj=expression,
                    prop=str(prop_token.value),
                )
            elif self._at(TokenKind.LBRACKET):
                bracket = self._advance()
                index = self.parse_expression()
                self._expect(TokenKind.RBRACKET, "index access")
                expression = ast.IndexAccess(
                    position=bracket.position, obj=expression, index=index
                )
            elif self._at(TokenKind.LPAREN):
                lparen = self._peek()
                args = self._parse_arguments()
                expression = ast.Call(
                    position=lparen.position, callee=expression, args=args
                )
            else:
                return expression

    def _expect_property_name(self) -> Token:
        """Property names after '.' may be identifiers or keywords."""
        token = self._peek()
        if token.kind is TokenKind.IDENT or str(token.value or "").isidentifier():
            self._advance()
            return token
        raise JSLSyntaxError("expected property name", token.position)

    def _parse_arguments(self) -> list[ast.Expression]:
        self._expect(TokenKind.LPAREN, "arguments")
        args: list[ast.Expression] = []
        if not self._at(TokenKind.RPAREN):
            while True:
                args.append(self.parse_assignment())
                if not self._match(TokenKind.COMMA):
                    break
        self._expect(TokenKind.RPAREN, "arguments")
        return args

    def _parse_primary(self) -> ast.Expression:
        token = self._peek()
        kind = token.kind
        if kind is TokenKind.NUMBER:
            self._advance()
            return ast.NumberLiteral(position=token.position, value=float(token.value))
        if kind is TokenKind.STRING:
            self._advance()
            return ast.StringLiteral(position=token.position, value=str(token.value))
        if kind is TokenKind.TRUE:
            self._advance()
            return ast.BooleanLiteral(position=token.position, value=True)
        if kind is TokenKind.FALSE:
            self._advance()
            return ast.BooleanLiteral(position=token.position, value=False)
        if kind is TokenKind.NULL:
            self._advance()
            return ast.NullLiteral(position=token.position)
        if kind is TokenKind.UNDEFINED:
            self._advance()
            return ast.UndefinedLiteral(position=token.position)
        if kind is TokenKind.THIS:
            self._advance()
            return ast.ThisExpression(position=token.position)
        if kind is TokenKind.IDENT:
            self._advance()
            return ast.Identifier(position=token.position, name=str(token.value))
        if kind is TokenKind.LPAREN:
            self._advance()
            expression = self.parse_expression()
            self._expect(TokenKind.RPAREN, "parenthesized expression")
            return expression
        if kind is TokenKind.LBRACKET:
            return self._parse_array_literal()
        if kind is TokenKind.LBRACE:
            return self._parse_object_literal()
        if kind is TokenKind.FUNCTION:
            return self._parse_function_expression()
        raise JSLSyntaxError(
            f"unexpected token {token.kind.value!r}", token.position
        )

    def _parse_array_literal(self) -> ast.ArrayLiteral:
        bracket = self._expect(TokenKind.LBRACKET)
        elements: list[ast.Expression] = []
        if not self._at(TokenKind.RBRACKET):
            while True:
                elements.append(self.parse_assignment())
                if not self._match(TokenKind.COMMA):
                    break
                if self._at(TokenKind.RBRACKET):
                    break  # trailing comma
        self._expect(TokenKind.RBRACKET, "array literal")
        return ast.ArrayLiteral(position=bracket.position, elements=elements)

    def _parse_object_literal(self) -> ast.ObjectLiteral:
        brace = self._expect(TokenKind.LBRACE)
        properties: list[ast.ObjectProperty] = []
        if not self._at(TokenKind.RBRACE):
            while True:
                key_token = self._peek()
                if key_token.kind in (TokenKind.IDENT, TokenKind.STRING):
                    key = str(key_token.value)
                    self._advance()
                elif key_token.kind is TokenKind.NUMBER:
                    key = _number_to_key(float(key_token.value))
                    self._advance()
                elif str(key_token.value or "").isidentifier():
                    key = str(key_token.value)  # keyword used as key
                    self._advance()
                else:
                    raise JSLSyntaxError(
                        "expected property key", key_token.position
                    )
                self._expect(TokenKind.COLON, "object literal")
                value = self.parse_assignment()
                properties.append(
                    ast.ObjectProperty(
                        key=key, value=value, position=key_token.position
                    )
                )
                if not self._match(TokenKind.COMMA):
                    break
                if self._at(TokenKind.RBRACE):
                    break  # trailing comma
        self._expect(TokenKind.RBRACE, "object literal")
        return ast.ObjectLiteral(position=brace.position, properties=properties)

    def _parse_function_expression(self) -> ast.FunctionExpression:
        keyword = self._expect(TokenKind.FUNCTION)
        name: str | None = None
        if self._at(TokenKind.IDENT):
            name = str(self._advance().value)
        params = self._parse_parameter_list()
        body = self._parse_block()
        return ast.FunctionExpression(
            position=keyword.position, name=name, params=params, body=body
        )


def _number_to_key(value: float) -> str:
    """Format a numeric object-literal key the way JS does (1.0 -> "1")."""
    if value == int(value):
        return str(int(value))
    return repr(value)


def parse(source: str, filename: str = "<script>") -> ast.Program:
    """Parse jsl ``source`` into an AST."""
    return Parser(tokenize(source, filename), filename).parse_program()
