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
from repro.lang.tokens import Token, TokenKind, TokenKinds

# Binary operator precedence, higher binds tighter.
_BINARY_PRECEDENCE: dict[TokenKind, int] = {
    TokenKinds.OR: 1,
    TokenKinds.AND: 2,
    TokenKinds.BIT_OR: 3,
    TokenKinds.BIT_XOR: 4,
    TokenKinds.BIT_AND: 5,
    TokenKinds.EQ: 6,
    TokenKinds.NEQ: 6,
    TokenKinds.STRICT_EQ: 6,
    TokenKinds.STRICT_NEQ: 6,
    TokenKinds.LT: 7,
    TokenKinds.GT: 7,
    TokenKinds.LE: 7,
    TokenKinds.GE: 7,
    TokenKinds.IN: 7,
    TokenKinds.INSTANCEOF: 7,
    TokenKinds.SHL: 8,
    TokenKinds.SHR: 8,
    TokenKinds.USHR: 8,
    TokenKinds.PLUS: 9,
    TokenKinds.MINUS: 9,
    TokenKinds.STAR: 10,
    TokenKinds.SLASH: 10,
    TokenKinds.PERCENT: 10,
}

_COMPOUND_ASSIGN = {
    TokenKinds.PLUS_ASSIGN: "+",
    TokenKinds.MINUS_ASSIGN: "-",
    TokenKinds.STAR_ASSIGN: "*",
    TokenKinds.SLASH_ASSIGN: "/",
    TokenKinds.PERCENT_ASSIGN: "%",
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
        if token.kind is not TokenKinds.EOF:
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
        if self._match(TokenKinds.SEMICOLON):
            return
        if self._at(TokenKinds.RBRACE) or self._at(TokenKinds.EOF):
            return
        token = self._peek()
        raise JSLSyntaxError(
            f"expected ';' but found {token.kind.value!r}", token.position
        )

    # -- program / statements ---------------------------------------------

    def parse_program(self) -> ast.Program:
        position = self._peek().position
        body: list[ast.Statement] = []
        while not self._at(TokenKinds.EOF):
            body.append(self.parse_statement())
        return ast.Program(position=position, body=body, filename=self._filename)

    def parse_statement(self) -> ast.Statement:
        token = self._peek()
        kind = token.kind
        if kind in (TokenKinds.VAR, TokenKinds.LET, TokenKinds.CONST):
            return self._parse_variable_declaration()
        if kind is TokenKinds.FUNCTION:
            return self._parse_function_declaration()
        if kind is TokenKinds.LBRACE:
            return self._parse_block()
        if kind is TokenKinds.IF:
            return self._parse_if()
        if kind is TokenKinds.WHILE:
            return self._parse_while()
        if kind is TokenKinds.DO:
            return self._parse_do_while()
        if kind is TokenKinds.FOR:
            return self._parse_for()
        if kind is TokenKinds.RETURN:
            return self._parse_return()
        if kind is TokenKinds.BREAK:
            self._advance()
            self._consume_semicolon()
            return ast.Break(position=token.position)
        if kind is TokenKinds.CONTINUE:
            self._advance()
            self._consume_semicolon()
            return ast.Continue(position=token.position)
        if kind is TokenKinds.THROW:
            self._advance()
            value = self.parse_expression()
            self._consume_semicolon()
            return ast.Throw(position=token.position, value=value)
        if kind is TokenKinds.TRY:
            return self._parse_try()
        if kind is TokenKinds.SWITCH:
            return self._parse_switch()
        if kind is TokenKinds.SEMICOLON:
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
            name_token = self._expect(TokenKinds.IDENT, "variable declaration")
            init: ast.Expression | None = None
            if self._match(TokenKinds.ASSIGN):
                init = self.parse_assignment()
            declarators.append(
                ast.VariableDeclarator(
                    name=str(name_token.value),
                    init=init,
                    position=name_token.position,
                )
            )
            if not self._match(TokenKinds.COMMA):
                return declarators

    def _parse_function_declaration(self) -> ast.FunctionDeclaration:
        keyword = self._expect(TokenKinds.FUNCTION)
        name_token = self._expect(TokenKinds.IDENT, "function declaration")
        params = self._parse_parameter_list()
        body = self._parse_block()
        return ast.FunctionDeclaration(
            position=keyword.position,
            name=str(name_token.value),
            params=params,
            body=body,
        )

    def _parse_parameter_list(self) -> list[str]:
        self._expect(TokenKinds.LPAREN, "parameter list")
        params: list[str] = []
        if not self._at(TokenKinds.RPAREN):
            while True:
                token = self._expect(TokenKinds.IDENT, "parameter list")
                params.append(str(token.value))
                if not self._match(TokenKinds.COMMA):
                    break
        self._expect(TokenKinds.RPAREN, "parameter list")
        return params

    def _parse_block(self) -> ast.Block:
        brace = self._expect(TokenKinds.LBRACE, "block")
        statements: list[ast.Statement] = []
        while not self._at(TokenKinds.RBRACE):
            if self._at(TokenKinds.EOF):
                raise JSLSyntaxError("unterminated block", brace.position)
            statements.append(self.parse_statement())
        self._expect(TokenKinds.RBRACE, "block")
        return ast.Block(position=brace.position, statements=statements)

    def _parse_if(self) -> ast.If:
        keyword = self._expect(TokenKinds.IF)
        self._expect(TokenKinds.LPAREN, "if condition")
        test = self.parse_expression()
        self._expect(TokenKinds.RPAREN, "if condition")
        consequent = self.parse_statement()
        alternate: ast.Statement | None = None
        if self._match(TokenKinds.ELSE):
            alternate = self.parse_statement()
        return ast.If(
            position=keyword.position,
            test=test,
            consequent=consequent,
            alternate=alternate,
        )

    def _parse_while(self) -> ast.While:
        keyword = self._expect(TokenKinds.WHILE)
        self._expect(TokenKinds.LPAREN, "while condition")
        test = self.parse_expression()
        self._expect(TokenKinds.RPAREN, "while condition")
        body = self.parse_statement()
        return ast.While(position=keyword.position, test=test, body=body)

    def _parse_do_while(self) -> ast.DoWhile:
        keyword = self._expect(TokenKinds.DO)
        body = self.parse_statement()
        self._expect(TokenKinds.WHILE, "do-while")
        self._expect(TokenKinds.LPAREN, "do-while condition")
        test = self.parse_expression()
        self._expect(TokenKinds.RPAREN, "do-while condition")
        self._consume_semicolon()
        return ast.DoWhile(position=keyword.position, body=body, test=test)

    def _parse_for(self) -> ast.Statement:
        keyword = self._expect(TokenKinds.FOR)
        self._expect(TokenKinds.LPAREN, "for header")

        # Disambiguate for-in from the classic three-clause for.
        if self._looks_like_for_in():
            return self._parse_for_in(keyword.position)

        init: ast.Statement | None = None
        if not self._at(TokenKinds.SEMICOLON):
            if self._peek().kind in (TokenKinds.VAR, TokenKinds.LET, TokenKinds.CONST):
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
        self._expect(TokenKinds.SEMICOLON, "for header")

        test: ast.Expression | None = None
        if not self._at(TokenKinds.SEMICOLON):
            test = self.parse_expression()
        self._expect(TokenKinds.SEMICOLON, "for header")

        update: ast.Expression | None = None
        if not self._at(TokenKinds.RPAREN):
            update = self.parse_expression()
        self._expect(TokenKinds.RPAREN, "for header")

        body = self.parse_statement()
        return ast.For(
            position=keyword.position, init=init, test=test, update=update, body=body
        )

    def _looks_like_for_in(self) -> bool:
        """True for ``for (var k in …`` or ``for (k in …``."""
        if self._peek().kind in (TokenKinds.VAR, TokenKinds.LET, TokenKinds.CONST):
            return (
                self._peek(1).kind is TokenKinds.IDENT
                and self._peek(2).kind is TokenKinds.IN
            )
        return (
            self._peek().kind is TokenKinds.IDENT
            and self._peek(1).kind is TokenKinds.IN
        )

    def _parse_for_in(self, position: SourcePosition) -> ast.ForIn:
        declares = False
        if self._peek().kind in (TokenKinds.VAR, TokenKinds.LET, TokenKinds.CONST):
            self._advance()
            declares = True
        name_token = self._expect(TokenKinds.IDENT, "for-in")
        self._expect(TokenKinds.IN, "for-in")
        obj = self.parse_expression()
        self._expect(TokenKinds.RPAREN, "for-in")
        body = self.parse_statement()
        return ast.ForIn(
            position=position,
            var_name=str(name_token.value),
            declares=declares,
            obj=obj,
            body=body,
        )

    def _parse_return(self) -> ast.Return:
        keyword = self._expect(TokenKinds.RETURN)
        value: ast.Expression | None = None
        if not (
            self._at(TokenKinds.SEMICOLON)
            or self._at(TokenKinds.RBRACE)
            or self._at(TokenKinds.EOF)
        ):
            value = self.parse_expression()
        self._consume_semicolon()
        return ast.Return(position=keyword.position, value=value)

    def _parse_try(self) -> ast.Try:
        keyword = self._expect(TokenKinds.TRY)
        block = self._parse_block()
        catch_param: str | None = None
        catch_block: ast.Block | None = None
        finally_block: ast.Block | None = None
        if self._match(TokenKinds.CATCH):
            self._expect(TokenKinds.LPAREN, "catch clause")
            param_token = self._expect(TokenKinds.IDENT, "catch clause")
            catch_param = str(param_token.value)
            self._expect(TokenKinds.RPAREN, "catch clause")
            catch_block = self._parse_block()
        if self._match(TokenKinds.FINALLY):
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
        keyword = self._expect(TokenKinds.SWITCH)
        self._expect(TokenKinds.LPAREN, "switch")
        discriminant = self.parse_expression()
        self._expect(TokenKinds.RPAREN, "switch")
        self._expect(TokenKinds.LBRACE, "switch body")
        cases: list[ast.SwitchCase] = []
        seen_default = False
        while not self._at(TokenKinds.RBRACE):
            case_token = self._peek()
            test: ast.Expression | None
            if self._match(TokenKinds.CASE):
                test = self.parse_expression()
            elif self._match(TokenKinds.DEFAULT):
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
            self._expect(TokenKinds.COLON, "switch case")
            body: list[ast.Statement] = []
            while self._peek().kind not in (
                TokenKinds.CASE,
                TokenKinds.DEFAULT,
                TokenKinds.RBRACE,
            ):
                body.append(self.parse_statement())
            cases.append(
                ast.SwitchCase(test=test, body=body, position=case_token.position)
            )
        self._expect(TokenKinds.RBRACE, "switch body")
        return ast.Switch(
            position=keyword.position, discriminant=discriminant, cases=cases
        )

    # -- expressions --------------------------------------------------------

    def parse_expression(self) -> ast.Expression:
        """Full expression including the comma operator."""
        first = self.parse_assignment()
        if not self._at(TokenKinds.COMMA):
            return first
        expressions = [first]
        while self._match(TokenKinds.COMMA):
            expressions.append(self.parse_assignment())
        return ast.Sequence(position=first.position, expressions=expressions)

    def parse_assignment(self) -> ast.Expression:
        left = self._parse_conditional()
        token = self._peek()
        if token.kind is TokenKinds.ASSIGN:
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
        if not self._match(TokenKinds.QUESTION):
            return test
        consequent = self.parse_assignment()
        self._expect(TokenKinds.COLON, "conditional expression")
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
            if token.kind in (TokenKinds.AND, TokenKinds.OR):
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
            TokenKinds.NOT,
            TokenKinds.MINUS,
            TokenKinds.PLUS,
            TokenKinds.BIT_NOT,
        ):
            self._advance()
            operand = self._parse_unary()
            return ast.Unary(
                position=token.position, op=str(token.value), operand=operand
            )
        if token.kind is TokenKinds.TYPEOF:
            self._advance()
            operand = self._parse_unary()
            return ast.TypeOf(position=token.position, operand=operand)
        if token.kind is TokenKinds.DELETE:
            self._advance()
            operand = self._parse_unary()
            if not isinstance(operand, (ast.MemberAccess, ast.IndexAccess)):
                raise JSLSyntaxError(
                    "delete target must be a property access", token.position
                )
            return ast.Delete(position=token.position, target=operand)
        if token.kind in (TokenKinds.PLUS_PLUS, TokenKinds.MINUS_MINUS):
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
        if token.kind in (TokenKinds.PLUS_PLUS, TokenKinds.MINUS_MINUS):
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
        if self._at(TokenKinds.NEW):
            return self._parse_new()
        expression = self._parse_primary()
        return self._parse_member_suffixes(expression)

    def _parse_new(self) -> ast.Expression:
        keyword = self._expect(TokenKinds.NEW)
        if self._at(TokenKinds.NEW):
            callee: ast.Expression = self._parse_new()
        else:
            callee = self._parse_primary()
        # Member accesses bind tighter than the `new` call arguments.
        while True:
            if self._match(TokenKinds.DOT):
                prop_token = self._expect_property_name()
                callee = ast.MemberAccess(
                    position=prop_token.position,
                    obj=callee,
                    prop=str(prop_token.value),
                )
            elif self._at(TokenKinds.LBRACKET):
                bracket = self._advance()
                index = self.parse_expression()
                self._expect(TokenKinds.RBRACKET, "index access")
                callee = ast.IndexAccess(
                    position=bracket.position, obj=callee, index=index
                )
            else:
                break
        args: list[ast.Expression] = []
        if self._at(TokenKinds.LPAREN):
            args = self._parse_arguments()
        new_expression = ast.New(position=keyword.position, callee=callee, args=args)
        return self._parse_member_suffixes(new_expression)

    def _parse_member_suffixes(self, expression: ast.Expression) -> ast.Expression:
        while True:
            if self._match(TokenKinds.DOT):
                prop_token = self._expect_property_name()
                expression = ast.MemberAccess(
                    position=prop_token.position,
                    obj=expression,
                    prop=str(prop_token.value),
                )
            elif self._at(TokenKinds.LBRACKET):
                bracket = self._advance()
                index = self.parse_expression()
                self._expect(TokenKinds.RBRACKET, "index access")
                expression = ast.IndexAccess(
                    position=bracket.position, obj=expression, index=index
                )
            elif self._at(TokenKinds.LPAREN):
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
        if token.kind is TokenKinds.IDENT or str(token.value or "").isidentifier():
            self._advance()
            return token
        raise JSLSyntaxError("expected property name", token.position)

    def _parse_arguments(self) -> list[ast.Expression]:
        self._expect(TokenKinds.LPAREN, "arguments")
        args: list[ast.Expression] = []
        if not self._at(TokenKinds.RPAREN):
            while True:
                args.append(self.parse_assignment())
                if not self._match(TokenKinds.COMMA):
                    break
        self._expect(TokenKinds.RPAREN, "arguments")
        return args

    def _parse_primary(self) -> ast.Expression:
        token = self._peek()
        kind = token.kind
        if kind is TokenKinds.NUMBER:
            self._advance()
            return ast.NumberLiteral(position=token.position, value=float(token.value))
        if kind is TokenKinds.STRING:
            self._advance()
            return ast.StringLiteral(position=token.position, value=str(token.value))
        if kind is TokenKinds.TRUE:
            self._advance()
            return ast.BooleanLiteral(position=token.position, value=True)
        if kind is TokenKinds.FALSE:
            self._advance()
            return ast.BooleanLiteral(position=token.position, value=False)
        if kind is TokenKinds.NULL:
            self._advance()
            return ast.NullLiteral(position=token.position)
        if kind is TokenKinds.UNDEFINED:
            self._advance()
            return ast.UndefinedLiteral(position=token.position)
        if kind is TokenKinds.THIS:
            self._advance()
            return ast.ThisExpression(position=token.position)
        if kind is TokenKinds.IDENT:
            self._advance()
            return ast.Identifier(position=token.position, name=str(token.value))
        if kind is TokenKinds.LPAREN:
            self._advance()
            expression = self.parse_expression()
            self._expect(TokenKinds.RPAREN, "parenthesized expression")
            return expression
        if kind is TokenKinds.LBRACKET:
            return self._parse_array_literal()
        if kind is TokenKinds.LBRACE:
            return self._parse_object_literal()
        if kind is TokenKinds.FUNCTION:
            return self._parse_function_expression()
        raise JSLSyntaxError(
            f"unexpected token {token.kind.value!r}", token.position
        )

    def _parse_array_literal(self) -> ast.ArrayLiteral:
        bracket = self._expect(TokenKinds.LBRACKET)
        elements: list[ast.Expression] = []
        if not self._at(TokenKinds.RBRACKET):
            while True:
                elements.append(self.parse_assignment())
                if not self._match(TokenKinds.COMMA):
                    break
                if self._at(TokenKinds.RBRACKET):
                    break  # trailing comma
        self._expect(TokenKinds.RBRACKET, "array literal")
        return ast.ArrayLiteral(position=bracket.position, elements=elements)

    def _parse_object_literal(self) -> ast.ObjectLiteral:
        brace = self._expect(TokenKinds.LBRACE)
        properties: list[ast.ObjectProperty] = []
        if not self._at(TokenKinds.RBRACE):
            while True:
                key_token = self._peek()
                if key_token.kind in (TokenKinds.IDENT, TokenKinds.STRING):
                    key = str(key_token.value)
                    self._advance()
                elif key_token.kind is TokenKinds.NUMBER:
                    key = _number_to_key(float(key_token.value))
                    self._advance()
                elif str(key_token.value or "").isidentifier():
                    key = str(key_token.value)  # keyword used as key
                    self._advance()
                else:
                    raise JSLSyntaxError(
                        "expected property key", key_token.position
                    )
                self._expect(TokenKinds.COLON, "object literal")
                value = self.parse_assignment()
                properties.append(
                    ast.ObjectProperty(
                        key=key, value=value, position=key_token.position
                    )
                )
                if not self._match(TokenKinds.COMMA):
                    break
                if self._at(TokenKinds.RBRACE):
                    break  # trailing comma
        self._expect(TokenKinds.RBRACE, "object literal")
        return ast.ObjectLiteral(position=brace.position, properties=properties)

    def _parse_function_expression(self) -> ast.FunctionExpression:
        keyword = self._expect(TokenKinds.FUNCTION)
        name: str | None = None
        if self._at(TokenKinds.IDENT):
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
