"""AST -> bytecode compiler for jsl.

The compiler is deliberately deterministic: the same source always produces
the same bytecode, the same constant pools and — critically — the same
feedback-slot numbering and site keys.  That determinism is what makes the
code cache (paper §8.1) and the TOAST site identifiers (paper §5.1) valid
across executions.

Scoping model: jsl uses function-level scoping (``var`` semantics) for all
declaration kinds.  Each function gets a flat list of local slots; free
variables are resolved at compile time to ``(depth, index)`` pairs walking
the lexical chain; anything unresolved is a global-object access, compiled
to a global IC site.
"""

from __future__ import annotations

from repro.bytecode.code import CodeObject, FeedbackSlotInfo, SiteKind, SiteKinds
from repro.bytecode.opcodes import BINOP_BY_SPELLING, UNOP_BY_SPELLING, BinOps, Op, Ops, UnOps
from repro.lang import ast_nodes as ast
from repro.lang.errors import JSLCompileError, SourcePosition
from repro.runtime.values import element_index


class _Scope:
    """Compile-time scope for one function (or the script top level)."""

    def __init__(self, parent: "_Scope | None", is_global: bool):
        self.parent = parent
        self.is_global = is_global
        self.locals: dict[str, int] = {}
        self.local_names: list[str] = []
        self._temp_counter = 0

    def declare(self, name: str) -> int:
        """Declare a local (idempotent), returning its slot index."""
        if name in self.locals:
            return self.locals[name]
        index = len(self.local_names)
        self.locals[name] = index
        self.local_names.append(name)
        return index

    def new_temp(self) -> int:
        """Allocate a compiler-internal temp slot."""
        name = f"%t{self._temp_counter}"
        self._temp_counter += 1
        return self.declare(name)

    def resolve(self, name: str) -> tuple[str, int, int]:
        """Resolve ``name`` -> ("local", idx, 0) | ("env", depth, idx) |
        ("global", 0, 0)."""
        if not self.is_global and name in self.locals:
            return ("local", self.locals[name], 0)
        depth = 1
        scope = self.parent
        while scope is not None:
            if not scope.is_global and name in scope.locals:
                return ("env", depth, scope.locals[name])
            depth += 1
            scope = scope.parent
        return ("global", 0, 0)


class _LoopContext:
    """Patch lists for break/continue targets of the innermost loop.

    ``entry_try_depth`` records how many try regions were open when the loop
    started; break/continue from a deeper try nesting would leave stale VM
    try handlers installed, so the compiler rejects them.
    """

    def __init__(self, entry_try_depth: int = 0) -> None:
        self.break_jumps: list[int] = []
        self.continue_jumps: list[int] = []
        self.entry_try_depth = entry_try_depth


class _FunctionCompiler:
    """Compiles one function body into a :class:`CodeObject`."""

    def __init__(
        self,
        name: str,
        params: list[str],
        position: SourcePosition,
        filename: str,
        scope: _Scope,
    ):
        self.code = CodeObject(
            name=name, filename=filename, params=list(params), position=position
        )
        self.scope = scope
        self.loops: list[_LoopContext] = []
        self.finally_depth = 0
        self.try_depth = 0
        #: Position attributed to instructions emitted next (statement-level).
        self.current_position = position
        self._site_keys_used: set[str] = set()
        self._const_index: dict[object, int] = {}
        self._name_index: dict[str, int] = {}

    # -- emission helpers ----------------------------------------------------

    def emit(self, op: Op, a: int = 0, b: int = 0) -> int:
        self.code.instructions.append((int(op), a, b))
        self.code.positions.append(
            (self.current_position.line, self.current_position.column)
        )
        return len(self.code.instructions) - 1

    def patch(self, pc: int, target: int) -> None:
        op, _, b = self.code.instructions[pc]
        self.code.instructions[pc] = (op, target, b)

    def here(self) -> int:
        return len(self.code.instructions)

    def const(self, value: object) -> int:
        key = (type(value).__name__, value) if not isinstance(value, CodeObject) else None
        if key is not None and key in self._const_index:
            return self._const_index[key]
        index = len(self.code.constants)
        self.code.constants.append(value)
        if key is not None:
            self._const_index[key] = index
        return index

    def name(self, text: str) -> int:
        if text in self._name_index:
            return self._name_index[text]
        index = len(self.code.names)
        self.code.names.append(text)
        self._name_index[text] = index
        return index

    def feedback(self, kind: SiteKind, position: SourcePosition, name: str | None) -> int:
        info = FeedbackSlotInfo(kind=kind, position=position, name=name)
        # Site keys must be unique within the whole program; a position+kind
        # collision (possible only for pathological one-token sources) gets a
        # deterministic suffix.
        key = info.site_key
        if key in self._site_keys_used:
            suffix = 2
            while True:
                candidate = FeedbackSlotInfo(
                    kind=kind,
                    position=SourcePosition(
                        position.filename,
                        position.line,
                        position.column + 10_000 * suffix,
                    ),
                    name=name,
                )
                if candidate.site_key not in self._site_keys_used:
                    info = candidate
                    key = candidate.site_key
                    break
                suffix += 1
        self._site_keys_used.add(key)
        self.code.feedback_slots.append(info)
        return len(self.code.feedback_slots) - 1

    def finish(self) -> CodeObject:
        self.emit(Ops.LOAD_UNDEFINED)
        self.emit(Ops.RETURN)
        self.code.local_names = list(self.scope.local_names)
        return self.code


class Compiler:
    """Compiles a parsed :class:`~repro.lang.ast_nodes.Program`."""

    def __init__(self, filename: str = "<script>"):
        self.filename = filename

    # -- entry points --------------------------------------------------------

    def compile_program(self, program: ast.Program) -> CodeObject:
        scope = _Scope(parent=None, is_global=True)
        fn = _FunctionCompiler(
            name="<toplevel>",
            params=[],
            position=program.position,
            filename=self.filename,
            scope=scope,
        )
        self._hoist_into(fn, program.body, toplevel=True)
        for statement in program.body:
            self._stmt(fn, statement)
        return fn.finish()

    # -- hoisting --------------------------------------------------------------

    def _hoist_into(
        self, fn: _FunctionCompiler, body: list[ast.Statement], toplevel: bool
    ) -> None:
        """Hoist declarations: at top level everything becomes a global
        property; inside a function, locals.  Function declarations are also
        compiled (and bound) up front, mirroring JS hoisting."""
        declared = _collect_declarations(body)
        for name, position in declared.vars:
            if toplevel:
                slot = fn.feedback(SiteKinds.GLOBAL_STORE, position, name)
                fn.emit(Ops.DECLARE_GLOBAL, fn.name(name), slot)
            else:
                fn.scope.declare(name)
        for decl in declared.functions:
            if not toplevel:
                fn.scope.declare(decl.name)
        for decl in declared.functions:
            code = self._compile_function(
                fn, decl.name, decl.params, decl.body, decl.position
            )
            fn.emit(Ops.MAKE_FUNCTION, fn.const(code))
            if toplevel:
                slot = fn.feedback(SiteKinds.GLOBAL_STORE, decl.position, decl.name)
                fn.emit(Ops.DECLARE_GLOBAL, fn.name(decl.name), slot)
                slot2 = fn.feedback(SiteKinds.GLOBAL_STORE, decl.position, decl.name)
                fn.emit(Ops.STORE_GLOBAL, fn.name(decl.name), slot2)
                fn.emit(Ops.POP)
            else:
                fn.emit(Ops.STORE_LOCAL, fn.scope.locals[decl.name])

    def _compile_function(
        self,
        parent: _FunctionCompiler,
        name: str | None,
        params: list[str],
        body: ast.Block,
        position: SourcePosition,
    ) -> CodeObject:
        scope = _Scope(parent=parent.scope, is_global=False)
        fn = _FunctionCompiler(
            name=name or "<anonymous>",
            params=params,
            position=position,
            filename=self.filename,
            scope=scope,
        )
        for param in params:
            scope.declare(param)
        self._hoist_into(fn, body.statements, toplevel=False)
        for statement in body.statements:
            self._stmt(fn, statement)
        return fn.finish()

    # -- statements --------------------------------------------------------------

    def _stmt(self, fn: _FunctionCompiler, node: ast.Statement) -> None:
        fn.current_position = node.position
        if isinstance(node, ast.ExpressionStatement):
            self._expr(fn, node.expression)
            fn.emit(Ops.POP)
        elif isinstance(node, ast.VariableDeclaration):
            self._var_declaration(fn, node)
        elif isinstance(node, ast.FunctionDeclaration):
            pass  # handled during hoisting
        elif isinstance(node, ast.Block):
            for statement in node.statements:
                self._stmt(fn, statement)
        elif isinstance(node, ast.If):
            self._if(fn, node)
        elif isinstance(node, ast.While):
            self._while(fn, node)
        elif isinstance(node, ast.DoWhile):
            self._do_while(fn, node)
        elif isinstance(node, ast.For):
            self._for(fn, node)
        elif isinstance(node, ast.ForIn):
            self._for_in(fn, node)
        elif isinstance(node, ast.Return):
            if self.in_finally(fn):
                raise JSLCompileError(
                    "return inside a finally-protected region is not supported",
                    node.position,
                )
            if node.value is not None:
                self._expr(fn, node.value)
            else:
                fn.emit(Ops.LOAD_UNDEFINED)
            fn.emit(Ops.RETURN)
        elif isinstance(node, ast.Break):
            if not fn.loops:
                raise JSLCompileError("break outside of loop", node.position)
            if fn.try_depth != fn.loops[-1].entry_try_depth:
                raise JSLCompileError(
                    "break across a try region is not supported", node.position
                )
            fn.loops[-1].break_jumps.append(fn.emit(Ops.JUMP))
        elif isinstance(node, ast.Continue):
            if not fn.loops:
                raise JSLCompileError("continue outside of loop", node.position)
            if fn.try_depth != fn.loops[-1].entry_try_depth:
                raise JSLCompileError(
                    "continue across a try region is not supported", node.position
                )
            fn.loops[-1].continue_jumps.append(fn.emit(Ops.JUMP))
        elif isinstance(node, ast.Throw):
            self._expr(fn, node.value)
            fn.emit(Ops.THROW)
        elif isinstance(node, ast.Try):
            self._try(fn, node)
        elif isinstance(node, ast.Switch):
            self._switch(fn, node)
        else:  # pragma: no cover - parser produces no other statement kinds
            raise JSLCompileError(
                f"cannot compile statement {type(node).__name__}", node.position
            )

    @staticmethod
    def in_finally(fn: _FunctionCompiler) -> bool:
        return fn.finally_depth > 0

    def _var_declaration(self, fn: _FunctionCompiler, node: ast.VariableDeclaration) -> None:
        for declarator in node.declarators:
            if declarator.init is None:
                continue
            self._expr(fn, declarator.init)
            self._store_identifier(fn, declarator.name, declarator.position)
            fn.emit(Ops.POP)

    def _store_identifier(
        self, fn: _FunctionCompiler, name: str, position: SourcePosition
    ) -> None:
        """Store TOS into ``name``; leaves the value on the stack."""
        where, a, b = fn.scope.resolve(name)
        if where == "local":
            fn.emit(Ops.DUP)
            fn.emit(Ops.STORE_LOCAL, a)
        elif where == "env":
            fn.emit(Ops.DUP)
            fn.emit(Ops.STORE_ENV, a, b)
        else:
            slot = fn.feedback(SiteKinds.GLOBAL_STORE, position, name)
            fn.emit(Ops.STORE_GLOBAL, fn.name(name), slot)

    def _if(self, fn: _FunctionCompiler, node: ast.If) -> None:
        self._expr(fn, node.test)
        jump_else = fn.emit(Ops.JUMP_IF_FALSE)
        self._stmt(fn, node.consequent)
        if node.alternate is not None:
            jump_end = fn.emit(Ops.JUMP)
            fn.patch(jump_else, fn.here())
            self._stmt(fn, node.alternate)
            fn.patch(jump_end, fn.here())
        else:
            fn.patch(jump_else, fn.here())

    def _while(self, fn: _FunctionCompiler, node: ast.While) -> None:
        loop = _LoopContext(fn.try_depth)
        fn.loops.append(loop)
        start = fn.here()
        self._expr(fn, node.test)
        jump_end = fn.emit(Ops.JUMP_IF_FALSE)
        self._stmt(fn, node.body)
        for pc in loop.continue_jumps:
            fn.patch(pc, start)
        fn.emit(Ops.JUMP, start)
        end = fn.here()
        fn.patch(jump_end, end)
        for pc in loop.break_jumps:
            fn.patch(pc, end)
        fn.loops.pop()

    def _do_while(self, fn: _FunctionCompiler, node: ast.DoWhile) -> None:
        loop = _LoopContext(fn.try_depth)
        fn.loops.append(loop)
        start = fn.here()
        self._stmt(fn, node.body)
        test_pc = fn.here()
        for pc in loop.continue_jumps:
            fn.patch(pc, test_pc)
        self._expr(fn, node.test)
        fn.emit(Ops.JUMP_IF_TRUE, start)
        end = fn.here()
        for pc in loop.break_jumps:
            fn.patch(pc, end)
        fn.loops.pop()

    def _for(self, fn: _FunctionCompiler, node: ast.For) -> None:
        if node.init is not None:
            self._stmt(fn, node.init)
        loop = _LoopContext(fn.try_depth)
        fn.loops.append(loop)
        start = fn.here()
        jump_end = None
        if node.test is not None:
            self._expr(fn, node.test)
            jump_end = fn.emit(Ops.JUMP_IF_FALSE)
        self._stmt(fn, node.body)
        update_pc = fn.here()
        for pc in loop.continue_jumps:
            fn.patch(pc, update_pc)
        if node.update is not None:
            self._expr(fn, node.update)
            fn.emit(Ops.POP)
        fn.emit(Ops.JUMP, start)
        end = fn.here()
        if jump_end is not None:
            fn.patch(jump_end, end)
        for pc in loop.break_jumps:
            fn.patch(pc, end)
        fn.loops.pop()

    def _for_in(self, fn: _FunctionCompiler, node: ast.ForIn) -> None:
        self._expr(fn, node.obj)
        fn.emit(Ops.FOR_IN_PREP)
        loop = _LoopContext(fn.try_depth)
        fn.loops.append(loop)
        start = fn.here()
        next_pc = fn.emit(Ops.FOR_IN_NEXT)
        self._store_identifier(fn, node.var_name, node.position)
        fn.emit(Ops.POP)
        self._stmt(fn, node.body)
        for pc in loop.continue_jumps:
            fn.patch(pc, start)
        fn.emit(Ops.JUMP, start)
        done = fn.here()
        fn.patch(next_pc, done)
        for pc in loop.break_jumps:
            fn.patch(pc, done)
        fn.emit(Ops.POP)  # drop the iterator
        fn.loops.pop()

    def _try(self, fn: _FunctionCompiler, node: ast.Try) -> None:
        """Compile try/catch/finally.

        The finally block is duplicated on the normal and exceptional paths
        (a standard bytecode scheme).  Exceptions raised *inside* catch or
        finally are not re-protected by this same try — matching the usual
        semantics.  ``return``/``break``/``continue`` crossing a finally are
        rejected at compile time (documented jsl restriction).
        """
        has_finally = node.finally_block is not None
        if has_finally:
            fn.finally_depth += 1
        fn.try_depth += 1
        setup_pc = fn.emit(Ops.SETUP_TRY)
        for statement in node.block.statements:
            self._stmt(fn, statement)
        fn.emit(Ops.POP_TRY)
        fn.try_depth -= 1
        if has_finally:
            for statement in node.finally_block.statements:  # type: ignore[union-attr]
                self._stmt(fn, statement)
        jump_end = fn.emit(Ops.JUMP)
        fn.patch(setup_pc, fn.here())
        # Exception path: the thrown value is on the stack here.
        if node.catch_block is not None:
            where, a, b = fn.scope.resolve(node.catch_param or "")
            if where == "local":
                fn.emit(Ops.STORE_LOCAL, a)
            elif where == "env":
                fn.emit(Ops.STORE_ENV, a, b)
            else:
                slot = fn.feedback(
                    SiteKinds.GLOBAL_STORE, node.position, node.catch_param or "?"
                )
                fn.emit(Ops.STORE_GLOBAL, fn.name(node.catch_param or "?"), slot)
                fn.emit(Ops.POP)
            for statement in node.catch_block.statements:
                self._stmt(fn, statement)
            if has_finally:
                for statement in node.finally_block.statements:  # type: ignore[union-attr]
                    self._stmt(fn, statement)
        else:
            # try/finally without catch: run finally, then rethrow the value
            # that is still sitting on the stack.
            for statement in node.finally_block.statements:  # type: ignore[union-attr]
                self._stmt(fn, statement)
            fn.emit(Ops.THROW)
        fn.patch(jump_end, fn.here())
        if has_finally:
            fn.finally_depth -= 1

    def _switch(self, fn: _FunctionCompiler, node: ast.Switch) -> None:
        temp = fn.scope.new_temp()
        self._expr(fn, node.discriminant)
        fn.emit(Ops.STORE_LOCAL, temp)
        loop = _LoopContext(fn.try_depth)  # reuse break patching machinery
        fn.loops.append(loop)
        case_jumps: list[tuple[int, int]] = []  # (jump pc, case index)
        default_index: int | None = None
        for index, case in enumerate(node.cases):
            if case.test is None:
                default_index = index
                continue
            fn.emit(Ops.LOAD_LOCAL, temp)
            self._expr(fn, case.test)
            fn.emit(Ops.BINARY, int(BinOps.STRICT_EQ))
            case_jumps.append((fn.emit(Ops.JUMP_IF_TRUE), index))
        default_jump = fn.emit(Ops.JUMP)
        case_starts: dict[int, int] = {}
        for index, case in enumerate(node.cases):
            case_starts[index] = fn.here()
            for statement in case.body:
                self._stmt(fn, statement)
        end = fn.here()
        for pc, index in case_jumps:
            fn.patch(pc, case_starts[index])
        fn.patch(default_jump, case_starts[default_index] if default_index is not None else end)
        for pc in loop.break_jumps:
            fn.patch(pc, end)
        if loop.continue_jumps:
            raise JSLCompileError("continue inside switch but outside loop", node.position)
        fn.loops.pop()

    # -- expressions --------------------------------------------------------------

    def _expr(self, fn: _FunctionCompiler, node: ast.Expression) -> None:
        method = getattr(self, "_expr_" + type(node).__name__, None)
        if method is None:  # pragma: no cover
            raise JSLCompileError(
                f"cannot compile expression {type(node).__name__}", node.position
            )
        method(fn, node)

    def _expr_NumberLiteral(self, fn: _FunctionCompiler, node: ast.NumberLiteral) -> None:
        fn.emit(Ops.LOAD_CONST, fn.const(node.value))

    def _expr_StringLiteral(self, fn: _FunctionCompiler, node: ast.StringLiteral) -> None:
        fn.emit(Ops.LOAD_CONST, fn.const(node.value))

    def _expr_BooleanLiteral(self, fn: _FunctionCompiler, node: ast.BooleanLiteral) -> None:
        fn.emit(Ops.LOAD_TRUE if node.value else Ops.LOAD_FALSE)

    def _expr_NullLiteral(self, fn: _FunctionCompiler, node: ast.NullLiteral) -> None:
        fn.emit(Ops.LOAD_NULL)

    def _expr_UndefinedLiteral(self, fn: _FunctionCompiler, node: ast.UndefinedLiteral) -> None:
        fn.emit(Ops.LOAD_UNDEFINED)

    def _expr_ThisExpression(self, fn: _FunctionCompiler, node: ast.ThisExpression) -> None:
        fn.emit(Ops.LOAD_THIS)

    def _expr_Identifier(self, fn: _FunctionCompiler, node: ast.Identifier) -> None:
        where, a, b = fn.scope.resolve(node.name)
        if where == "local":
            fn.emit(Ops.LOAD_LOCAL, a)
        elif where == "env":
            fn.emit(Ops.LOAD_ENV, a, b)
        else:
            slot = fn.feedback(SiteKinds.GLOBAL_LOAD, node.position, node.name)
            fn.emit(Ops.LOAD_GLOBAL, fn.name(node.name), slot)

    def _expr_ArrayLiteral(self, fn: _FunctionCompiler, node: ast.ArrayLiteral) -> None:
        for element in node.elements:
            self._expr(fn, element)
        fn.emit(Ops.MAKE_ARRAY, len(node.elements))

    def _expr_ObjectLiteral(self, fn: _FunctionCompiler, node: ast.ObjectLiteral) -> None:
        fn.emit(Ops.MAKE_OBJECT)
        for prop in node.properties:
            index = element_index(prop.key)
            if index is not None:
                # Numeric keys are element properties (JS semantics), so
                # they go through the keyed-store path, not the layout.
                fn.emit(Ops.DUP)
                fn.emit(Ops.LOAD_CONST, fn.const(float(index)))
                self._expr(fn, prop.value)
                slot = fn.feedback(SiteKinds.KEYED_STORE, prop.position, None)
                fn.emit(Ops.SET_INDEX, slot)
                fn.emit(Ops.POP)
                continue
            self._expr(fn, prop.value)
            slot = fn.feedback(SiteKinds.NAMED_STORE, prop.position, prop.key)
            fn.emit(Ops.OBJ_LIT_PROP, fn.name(prop.key), slot)

    def _expr_FunctionExpression(self, fn: _FunctionCompiler, node: ast.FunctionExpression) -> None:
        code = self._compile_function(fn, node.name, node.params, node.body, node.position)
        fn.emit(Ops.MAKE_FUNCTION, fn.const(code))

    def _expr_MemberAccess(self, fn: _FunctionCompiler, node: ast.MemberAccess) -> None:
        self._expr(fn, node.obj)
        slot = fn.feedback(SiteKinds.NAMED_LOAD, node.position, node.prop)
        fn.emit(Ops.GET_PROP, fn.name(node.prop), slot)

    def _expr_IndexAccess(self, fn: _FunctionCompiler, node: ast.IndexAccess) -> None:
        self._expr(fn, node.obj)
        self._expr(fn, node.index)
        slot = fn.feedback(SiteKinds.KEYED_LOAD, node.position, None)
        fn.emit(Ops.GET_INDEX, slot)

    def _expr_Call(self, fn: _FunctionCompiler, node: ast.Call) -> None:
        callee = node.callee
        if isinstance(callee, ast.MemberAccess):
            self._expr(fn, callee.obj)
            fn.emit(Ops.DUP)
            slot = fn.feedback(SiteKinds.NAMED_LOAD, callee.position, callee.prop)
            fn.emit(Ops.GET_PROP, fn.name(callee.prop), slot)
            for arg in node.args:
                self._expr(fn, arg)
            fn.emit(Ops.CALL_METHOD, len(node.args))
        elif isinstance(callee, ast.IndexAccess):
            self._expr(fn, callee.obj)
            fn.emit(Ops.DUP)
            self._expr(fn, callee.index)
            slot = fn.feedback(SiteKinds.KEYED_LOAD, callee.position, None)
            fn.emit(Ops.GET_INDEX, slot)
            for arg in node.args:
                self._expr(fn, arg)
            fn.emit(Ops.CALL_METHOD, len(node.args))
        else:
            self._expr(fn, callee)
            for arg in node.args:
                self._expr(fn, arg)
            fn.emit(Ops.CALL, len(node.args))

    def _expr_New(self, fn: _FunctionCompiler, node: ast.New) -> None:
        self._expr(fn, node.callee)
        for arg in node.args:
            self._expr(fn, arg)
        fn.emit(Ops.NEW, len(node.args))

    def _expr_Assignment(self, fn: _FunctionCompiler, node: ast.Assignment) -> None:
        target = node.target
        if node.op == "=":
            if isinstance(target, ast.Identifier):
                self._expr(fn, node.value)
                self._store_identifier(fn, target.name, target.position)
            elif isinstance(target, ast.MemberAccess):
                self._expr(fn, target.obj)
                self._expr(fn, node.value)
                slot = fn.feedback(SiteKinds.NAMED_STORE, target.position, target.prop)
                fn.emit(Ops.SET_PROP, fn.name(target.prop), slot)
            elif isinstance(target, ast.IndexAccess):
                self._expr(fn, target.obj)
                self._expr(fn, target.index)
                self._expr(fn, node.value)
                slot = fn.feedback(SiteKinds.KEYED_STORE, target.position, None)
                fn.emit(Ops.SET_INDEX, slot)
            else:  # pragma: no cover - parser validates targets
                raise JSLCompileError("invalid assignment target", node.position)
            return
        self._compound_assignment(fn, node)

    def _compound_assignment(self, fn: _FunctionCompiler, node: ast.Assignment) -> None:
        target = node.target
        binop = int(BINOP_BY_SPELLING[node.op])
        if isinstance(target, ast.Identifier):
            self._expr_Identifier(fn, target)
            self._expr(fn, node.value)
            fn.emit(Ops.BINARY, binop)
            self._store_identifier(fn, target.name, target.position)
        elif isinstance(target, ast.MemberAccess):
            temp_obj = fn.scope.new_temp()
            self._expr(fn, target.obj)
            fn.emit(Ops.STORE_LOCAL, temp_obj)
            fn.emit(Ops.LOAD_LOCAL, temp_obj)
            fn.emit(Ops.LOAD_LOCAL, temp_obj)
            load_slot = fn.feedback(SiteKinds.NAMED_LOAD, target.position, target.prop)
            fn.emit(Ops.GET_PROP, fn.name(target.prop), load_slot)
            self._expr(fn, node.value)
            fn.emit(Ops.BINARY, binop)
            store_slot = fn.feedback(SiteKinds.NAMED_STORE, target.position, target.prop)
            fn.emit(Ops.SET_PROP, fn.name(target.prop), store_slot)
        elif isinstance(target, ast.IndexAccess):
            temp_obj = fn.scope.new_temp()
            temp_idx = fn.scope.new_temp()
            self._expr(fn, target.obj)
            fn.emit(Ops.STORE_LOCAL, temp_obj)
            self._expr(fn, target.index)
            fn.emit(Ops.STORE_LOCAL, temp_idx)
            fn.emit(Ops.LOAD_LOCAL, temp_obj)
            fn.emit(Ops.LOAD_LOCAL, temp_idx)
            fn.emit(Ops.LOAD_LOCAL, temp_obj)
            fn.emit(Ops.LOAD_LOCAL, temp_idx)
            load_slot = fn.feedback(SiteKinds.KEYED_LOAD, target.position, None)
            fn.emit(Ops.GET_INDEX, load_slot)
            self._expr(fn, node.value)
            fn.emit(Ops.BINARY, binop)
            store_slot = fn.feedback(SiteKinds.KEYED_STORE, target.position, None)
            fn.emit(Ops.SET_INDEX, store_slot)
        else:  # pragma: no cover
            raise JSLCompileError("invalid assignment target", node.position)

    def _expr_Binary(self, fn: _FunctionCompiler, node: ast.Binary) -> None:
        self._expr(fn, node.left)
        self._expr(fn, node.right)
        fn.emit(Ops.BINARY, int(BINOP_BY_SPELLING[node.op]))

    def _expr_Logical(self, fn: _FunctionCompiler, node: ast.Logical) -> None:
        self._expr(fn, node.left)
        if node.op == "&&":
            jump = fn.emit(Ops.JUMP_IF_FALSE_KEEP)
        else:
            jump = fn.emit(Ops.JUMP_IF_TRUE_KEEP)
        fn.emit(Ops.POP)
        self._expr(fn, node.right)
        fn.patch(jump, fn.here())

    def _expr_Unary(self, fn: _FunctionCompiler, node: ast.Unary) -> None:
        self._expr(fn, node.operand)
        fn.emit(Ops.UNARY, int(UNOP_BY_SPELLING[node.op]))

    def _expr_Update(self, fn: _FunctionCompiler, node: ast.Update) -> None:
        operand = node.operand
        binop = int(BinOps.ADD if node.op == "++" else BinOps.SUB)
        one = fn.const(1.0)
        if isinstance(operand, ast.Identifier):
            if node.prefix:
                self._expr_Identifier(fn, operand)
                fn.emit(Ops.LOAD_CONST, one)
                fn.emit(Ops.BINARY, binop)
                self._store_identifier(fn, operand.name, operand.position)
            else:
                temp_old = fn.scope.new_temp()
                self._expr_Identifier(fn, operand)
                fn.emit(Ops.UNARY, int(UnOps.PLUS))
                fn.emit(Ops.STORE_LOCAL, temp_old)
                fn.emit(Ops.LOAD_LOCAL, temp_old)
                fn.emit(Ops.LOAD_CONST, one)
                fn.emit(Ops.BINARY, binop)
                self._store_identifier(fn, operand.name, operand.position)
                fn.emit(Ops.POP)
                fn.emit(Ops.LOAD_LOCAL, temp_old)
        elif isinstance(operand, ast.MemberAccess):
            temp_obj = fn.scope.new_temp()
            temp_old = fn.scope.new_temp()
            self._expr(fn, operand.obj)
            fn.emit(Ops.STORE_LOCAL, temp_obj)
            fn.emit(Ops.LOAD_LOCAL, temp_obj)
            load_slot = fn.feedback(SiteKinds.NAMED_LOAD, operand.position, operand.prop)
            fn.emit(Ops.GET_PROP, fn.name(operand.prop), load_slot)
            fn.emit(Ops.UNARY, int(UnOps.PLUS))
            fn.emit(Ops.STORE_LOCAL, temp_old)
            fn.emit(Ops.LOAD_LOCAL, temp_obj)
            fn.emit(Ops.LOAD_LOCAL, temp_old)
            fn.emit(Ops.LOAD_CONST, one)
            fn.emit(Ops.BINARY, binop)
            store_slot = fn.feedback(SiteKinds.NAMED_STORE, operand.position, operand.prop)
            fn.emit(Ops.SET_PROP, fn.name(operand.prop), store_slot)
            if node.prefix:
                pass  # new value already on the stack
            else:
                fn.emit(Ops.POP)
                fn.emit(Ops.LOAD_LOCAL, temp_old)
        elif isinstance(operand, ast.IndexAccess):
            temp_obj = fn.scope.new_temp()
            temp_idx = fn.scope.new_temp()
            temp_old = fn.scope.new_temp()
            self._expr(fn, operand.obj)
            fn.emit(Ops.STORE_LOCAL, temp_obj)
            self._expr(fn, operand.index)
            fn.emit(Ops.STORE_LOCAL, temp_idx)
            fn.emit(Ops.LOAD_LOCAL, temp_obj)
            fn.emit(Ops.LOAD_LOCAL, temp_idx)
            load_slot = fn.feedback(SiteKinds.KEYED_LOAD, operand.position, None)
            fn.emit(Ops.GET_INDEX, load_slot)
            fn.emit(Ops.UNARY, int(UnOps.PLUS))
            fn.emit(Ops.STORE_LOCAL, temp_old)
            fn.emit(Ops.LOAD_LOCAL, temp_obj)
            fn.emit(Ops.LOAD_LOCAL, temp_idx)
            fn.emit(Ops.LOAD_LOCAL, temp_old)
            fn.emit(Ops.LOAD_CONST, one)
            fn.emit(Ops.BINARY, binop)
            store_slot = fn.feedback(SiteKinds.KEYED_STORE, operand.position, None)
            fn.emit(Ops.SET_INDEX, store_slot)
            if not node.prefix:
                fn.emit(Ops.POP)
                fn.emit(Ops.LOAD_LOCAL, temp_old)
        else:  # pragma: no cover
            raise JSLCompileError("invalid update target", node.position)

    def _expr_Conditional(self, fn: _FunctionCompiler, node: ast.Conditional) -> None:
        self._expr(fn, node.test)
        jump_else = fn.emit(Ops.JUMP_IF_FALSE)
        self._expr(fn, node.consequent)
        jump_end = fn.emit(Ops.JUMP)
        fn.patch(jump_else, fn.here())
        self._expr(fn, node.alternate)
        fn.patch(jump_end, fn.here())

    def _expr_Delete(self, fn: _FunctionCompiler, node: ast.Delete) -> None:
        target = node.target
        if isinstance(target, ast.MemberAccess):
            self._expr(fn, target.obj)
            fn.emit(Ops.DELETE_PROP, fn.name(target.prop))
        else:
            assert isinstance(target, ast.IndexAccess)
            self._expr(fn, target.obj)
            self._expr(fn, target.index)
            fn.emit(Ops.DELETE_INDEX)

    def _expr_TypeOf(self, fn: _FunctionCompiler, node: ast.TypeOf) -> None:
        operand = node.operand
        if isinstance(operand, ast.Identifier):
            where, a, b = fn.scope.resolve(operand.name)
            if where == "global":
                # `typeof undeclared` must not throw.
                slot = fn.feedback(SiteKinds.GLOBAL_LOAD, operand.position, operand.name)
                fn.emit(Ops.LOAD_GLOBAL_SOFT, fn.name(operand.name), slot)
                fn.emit(Ops.TYPEOF)
                return
        self._expr(fn, operand)
        fn.emit(Ops.TYPEOF)

    def _expr_Sequence(self, fn: _FunctionCompiler, node: ast.Sequence) -> None:
        for index, expression in enumerate(node.expressions):
            self._expr(fn, expression)
            if index != len(node.expressions) - 1:
                fn.emit(Ops.POP)


class _Declarations:
    def __init__(self) -> None:
        self.vars: list[tuple[str, SourcePosition]] = []
        self.functions: list[ast.FunctionDeclaration] = []
        self._seen_vars: set[str] = set()

    def add_var(self, name: str, position: SourcePosition) -> None:
        if name not in self._seen_vars:
            self._seen_vars.add(name)
            self.vars.append((name, position))


def _collect_declarations(body: list[ast.Statement]) -> _Declarations:
    """Gather hoisted var/function declarations without entering nested
    functions (JS function-scoping)."""
    declared = _Declarations()

    def walk(node: ast.Statement) -> None:
        if isinstance(node, ast.VariableDeclaration):
            for declarator in node.declarators:
                declared.add_var(declarator.name, declarator.position)
        elif isinstance(node, ast.FunctionDeclaration):
            declared.functions.append(node)
        elif isinstance(node, ast.Block):
            for statement in node.statements:
                walk(statement)
        elif isinstance(node, ast.If):
            walk(node.consequent)
            if node.alternate is not None:
                walk(node.alternate)
        elif isinstance(node, (ast.While, ast.DoWhile)):
            walk(node.body)
        elif isinstance(node, ast.For):
            if node.init is not None:
                walk(node.init)
            walk(node.body)
        elif isinstance(node, ast.ForIn):
            if node.declares:
                declared.add_var(node.var_name, node.position)
            walk(node.body)
        elif isinstance(node, ast.Try):
            for statement in node.block.statements:
                walk(statement)
            if node.catch_param is not None:
                declared.add_var(node.catch_param, node.position)
            if node.catch_block is not None:
                for statement in node.catch_block.statements:
                    walk(statement)
            if node.finally_block is not None:
                for statement in node.finally_block.statements:
                    walk(statement)
        elif isinstance(node, ast.Switch):
            for case in node.cases:
                for statement in case.body:
                    walk(statement)

    for statement in body:
        walk(statement)
    return declared


def compile_source(source: str, filename: str = "<script>") -> CodeObject:
    """Parse and compile jsl ``source`` into a top-level :class:`CodeObject`."""
    from repro.lang.parser import parse

    program = parse(source, filename)
    return Compiler(filename).compile_program(program)
