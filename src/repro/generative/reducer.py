"""AST-level delta-debugging reducer for divergent MiniC programs.

Classic ddmin works on byte ranges; this reducer works on the parsed
AST (diopter/C-Reduce style), so every candidate it proposes is still a
*program* — and only candidates that re-parse and re-check cleanly are
ever handed to the interestingness predicate, as a :class:`Candidate`
carrying both the text and its checked AST.  The transformation menu,
coarsest first:

* **drop function** — remove an entire unreferenced function;
* **inline constant** — replace a call expression with ``0``, which is
  what eventually makes its callee unreferenced;
* **drop statement** — remove one statement from any block;
* **unroll to straight line** — replace a loop with a single unrolled
  copy of its body;
* **flatten branch** — replace an ``if`` with one of its arms;
* **simplify expression** — replace a compound expression with one of
  its operands or a literal ``0``;
* **drop global** — remove an unreferenced global or struct.

The engine runs a greedy fixpoint loop: sweep the menu in order, accept
any candidate the predicate still finds interesting, and restart until a
full sweep accepts nothing (the 1-minimal fixpoint) or the per-reduction
step budget runs out.  Each candidate is printed from a mutated copy of
the current AST, deduplicated by its text, and only then parsed, once;
an accepted candidate's AST is the next sweep's enumeration base, so a
predicate must never mutate the AST it is handed.  Acceptance is
*monotone by construction* — a candidate is only ever adopted after the
predicate confirmed it — and the trace of accepted snapshots is kept on
the result so tests can re-verify every step
(``tests/test_generative_reducer.py``).

Predicates are pluggable callables over one :class:`Candidate`.  One
ships here: :class:`StillDiverges` (the CompDiff verdict, optionally
pinned to the divergence signature's implementation partition).
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.errors import ReproError
from repro.minic import ast, load, count_nodes, to_source

#: Default cap on accepted reduction steps per program.
DEFAULT_STEP_BUDGET = 200
#: Default cap on predicate evaluations per program (the expensive part).
DEFAULT_TEST_BUDGET = 2500


# --------------------------------------------------------------------------
# Interestingness predicates
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Candidate:
    """One program a predicate judges: its text and its checked AST.

    It hashes and compares by text alone, so it can key a set or a memo.
    The AST is shared with the reducer, which enumerates the next sweep
    over an accepted candidate's AST: read it, never mutate it.
    """

    source: str
    program: ast.Program = field(compare=False, repr=False)

    @classmethod
    def parse(cls, source: str) -> "Candidate":
        """Parse and check *source* (raises :class:`ReproError`)."""
        return cls(source, load(source))


class Predicate(Protocol):
    """An interestingness test over one candidate program."""

    def __call__(self, candidate: Candidate) -> bool: ...  # pragma: no cover


class StillDiverges:
    """Interesting iff CompDiff still flags the program on *inputs*.

    With *partition* (a divergence signature's implementation partition)
    some input must still split the implementations exactly that way, so
    reduction cannot slide from one discrepancy class onto a different,
    cheaper one.  The question goes to :meth:`CompDiff.diverges`, which
    stops building implementations once the answer is fixed.
    """

    def __init__(
        self,
        engine,
        inputs: list[bytes],
        name: str = "reduce",
        partition: tuple[tuple[str, ...], ...] | None = None,
    ) -> None:
        self.engine = engine
        self.inputs = list(inputs)
        self.name = name
        self.partition = partition

    def __call__(self, candidate: Candidate) -> bool:
        try:
            return self.engine.diverges(
                candidate.program, self.inputs, partition=self.partition, name=self.name
            )
        except ReproError:
            return False


# --------------------------------------------------------------------------
# AST transformations
# --------------------------------------------------------------------------


def _referenced_names(program: ast.Program) -> set[str]:
    """Every identifier read anywhere in *program* (calls included)."""
    names: set[str] = set()

    def visit_expr(expr: ast.Expr) -> None:
        for node in ast.walk_expr(expr):
            if isinstance(node, ast.Ident):
                names.add(node.name)

    for decl in program.decls:
        if isinstance(decl, ast.GlobalVar) and decl.init is not None:
            visit_expr(decl.init)
        if isinstance(decl, ast.FuncDef):
            for stmt in ast.walk_stmts(decl.body):
                for expr in ast.statement_exprs(stmt):
                    visit_expr(expr)
    return names


def _blocks_of(func: ast.FuncDef) -> list[list[ast.Stmt]]:
    """Every mutable statement list in *func*, outermost first."""
    blocks: list[list[ast.Stmt]] = []
    for stmt in ast.walk_stmts(func.body):
        if isinstance(stmt, ast.Block):
            blocks.append(stmt.body)
        elif isinstance(stmt, ast.Switch):
            for case in stmt.cases:
                blocks.append(case.body)
    return blocks


def _loop_sites(block: list[ast.Stmt]) -> list[int]:
    return [
        i
        for i, stmt in enumerate(block)
        if isinstance(stmt, (ast.While, ast.DoWhile, ast.For))
    ]


def _if_sites(block: list[ast.Stmt]) -> list[int]:
    return [i for i, stmt in enumerate(block) if isinstance(stmt, ast.If)]


class _Candidates:
    """Enumerates single-step transformations of one program snapshot.

    Every method yields ``(description, mutate)`` pairs, where *mutate*
    applies the transformation in place to a fresh deep copy.  The
    enumeration order is deterministic, which (with a deterministic
    predicate) makes the whole reduction deterministic.
    """

    def __init__(self, program: ast.Program) -> None:
        self.program = program

    # Pass 1: whole unreferenced definitions (coarsest grain).
    def drop_definitions(self):
        referenced = _referenced_names(self.program)
        for index, decl in enumerate(self.program.decls):
            if isinstance(decl, ast.FuncDef):
                if decl.name == "main" or decl.name in referenced:
                    continue
                label = f"drop function {decl.name}"
            elif isinstance(decl, ast.GlobalVar):
                if decl.name in referenced:
                    continue
                label = f"drop global {decl.name}"
            elif isinstance(decl, ast.StructDef):
                label = f"drop struct {decl.name}"
            else:  # pragma: no cover - no other decl kinds
                continue

            def mutate(prog: ast.Program, index=index) -> None:
                del prog.decls[index]

            yield label, mutate

    # Pass 2: drop one statement anywhere.
    def drop_statements(self):
        for f_idx, func in enumerate(self.program.functions()):
            for b_idx, block in enumerate(_blocks_of(func)):
                for s_idx in range(len(block)):
                    label = f"drop stmt {func.name}[{b_idx}][{s_idx}]"

                    def mutate(
                        prog: ast.Program, f_idx=f_idx, b_idx=b_idx, s_idx=s_idx
                    ) -> None:
                        target = prog.functions()[f_idx]
                        del _blocks_of(target)[b_idx][s_idx]

                    yield label, mutate

    # Pass 3: replace a call with the constant 0 (enables pass 1 later).
    def inline_constant_calls(self):
        from repro.minic.builtins import is_builtin

        for f_idx, func in enumerate(self.program.functions()):
            sites = 0
            for stmt in ast.walk_stmts(func.body):
                for top in ast.statement_exprs(stmt):
                    for node in ast.walk_expr(top):
                        if (
                            isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Ident)
                            and not is_builtin(node.func.name)
                        ):
                            sites += 1
            for site in range(sites):
                label = f"inline call #{site} in {func.name} -> 0"

                def mutate(prog: ast.Program, f_idx=f_idx, site=site) -> None:
                    _replace_call(prog.functions()[f_idx], site)

                yield label, mutate

    # Pass 4: unroll a loop into one straight-line copy of its body.
    def unroll_loops(self):
        for f_idx, func in enumerate(self.program.functions()):
            for b_idx, block in enumerate(_blocks_of(func)):
                for s_idx in _loop_sites(block):
                    label = f"unroll loop {func.name}[{b_idx}][{s_idx}]"

                    def mutate(
                        prog: ast.Program, f_idx=f_idx, b_idx=b_idx, s_idx=s_idx
                    ) -> None:
                        target = prog.functions()[f_idx]
                        inner = _blocks_of(target)[b_idx]
                        inner[s_idx] = _unrolled(inner[s_idx])

                    yield label, mutate

    # Pass 5: flatten an if into one of its arms.
    def flatten_branches(self):
        for f_idx, func in enumerate(self.program.functions()):
            for b_idx, block in enumerate(_blocks_of(func)):
                for s_idx in _if_sites(block):
                    for arm in ("then", "else"):
                        if arm == "else" and getattr(block[s_idx], "otherwise") is None:
                            continue
                        label = f"flatten if {func.name}[{b_idx}][{s_idx}] -> {arm}"

                        def mutate(
                            prog: ast.Program,
                            f_idx=f_idx,
                            b_idx=b_idx,
                            s_idx=s_idx,
                            arm=arm,
                        ) -> None:
                            target = prog.functions()[f_idx]
                            inner = _blocks_of(target)[b_idx]
                            branch = inner[s_idx]
                            chosen = branch.then if arm == "then" else branch.otherwise
                            inner[s_idx] = chosen

                        yield label, mutate

    # Pass 6: shrink one compound expression to an operand or literal.
    def simplify_expressions(self):
        sites = 0
        for func in self.program.functions():
            for stmt in ast.walk_stmts(func.body):
                for top in ast.statement_exprs(stmt):
                    for node in ast.walk_expr(top):
                        if isinstance(node, (ast.Binary, ast.Conditional, ast.Cast)):
                            sites += 1
        for site in range(sites):
            for how in ("lhs", "rhs", "zero"):
                label = f"simplify expr #{site} -> {how}"

                def mutate(prog: ast.Program, site=site, how=how) -> None:
                    _simplify_expr_site(prog, site, how)

                yield label, mutate

    def passes(self):
        yield "drop-definition", self.drop_definitions()
        yield "drop-statement", self.drop_statements()
        yield "inline-constant", self.inline_constant_calls()
        yield "unroll-loop", self.unroll_loops()
        yield "flatten-branch", self.flatten_branches()
        yield "simplify-expression", self.simplify_expressions()


def _replace_call(func: ast.FuncDef, site: int) -> None:
    """Replace the *site*-th non-builtin call in *func* with ``0``."""
    from repro.minic.builtins import is_builtin

    seen = 0

    def rewrite(expr: ast.Expr) -> ast.Expr:
        nonlocal seen
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Ident)
            and not is_builtin(expr.func.name)
        ):
            if seen == site:
                seen += 1
                return ast.IntLit(expr.line, expr.col, value=0)
            seen += 1
        _rewrite_children(expr, rewrite)
        return expr

    _rewrite_exprs(func, rewrite)


def _simplify_expr_site(program: ast.Program, site: int, how: str) -> None:
    """Shrink the *site*-th compound expression in *program*."""
    seen = 0

    def rewrite(expr: ast.Expr) -> ast.Expr:
        nonlocal seen
        if isinstance(expr, (ast.Binary, ast.Conditional, ast.Cast)):
            if seen == site:
                seen += 1
                if how == "zero":
                    return ast.IntLit(expr.line, expr.col, value=0)
                if isinstance(expr, ast.Binary):
                    return expr.lhs if how == "lhs" else expr.rhs
                if isinstance(expr, ast.Conditional):
                    return expr.then if how == "lhs" else expr.otherwise
                return expr.operand  # Cast: both arms collapse to operand
            seen += 1
        _rewrite_children(expr, rewrite)
        return expr

    for func in program.functions():
        _rewrite_exprs(func, rewrite)


def _rewrite_children(expr: ast.Expr, rewrite) -> None:
    """Apply *rewrite* to each direct child expression of *expr*."""
    if isinstance(expr, ast.Unary):
        expr.operand = rewrite(expr.operand)
    elif isinstance(expr, ast.Binary):
        expr.lhs = rewrite(expr.lhs)
        expr.rhs = rewrite(expr.rhs)
    elif isinstance(expr, ast.Assign):
        expr.value = rewrite(expr.value)
    elif isinstance(expr, ast.Conditional):
        expr.cond = rewrite(expr.cond)
        expr.then = rewrite(expr.then)
        expr.otherwise = rewrite(expr.otherwise)
    elif isinstance(expr, ast.Call):
        expr.args = [rewrite(arg) for arg in expr.args]
    elif isinstance(expr, ast.Index):
        expr.index = rewrite(expr.index)
    elif isinstance(expr, (ast.Cast, ast.SizeofExpr)):
        expr.operand = rewrite(expr.operand)


def _rewrite_exprs(func: ast.FuncDef, rewrite) -> None:
    """Apply *rewrite* to every top-level expression position in *func*."""
    for stmt in ast.walk_stmts(func.body):
        if isinstance(stmt, ast.ExprStmt):
            stmt.expr = rewrite(stmt.expr)
        elif isinstance(stmt, ast.VarDecl) and stmt.init is not None:
            stmt.init = rewrite(stmt.init)
        elif isinstance(stmt, ast.If):
            stmt.cond = rewrite(stmt.cond)
        elif isinstance(stmt, ast.While):
            stmt.cond = rewrite(stmt.cond)
        elif isinstance(stmt, ast.DoWhile):
            stmt.cond = rewrite(stmt.cond)
        elif isinstance(stmt, ast.For):
            if stmt.cond is not None:
                stmt.cond = rewrite(stmt.cond)
            if stmt.step is not None:
                stmt.step = rewrite(stmt.step)
        elif isinstance(stmt, ast.Switch):
            stmt.cond = rewrite(stmt.cond)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            stmt.value = rewrite(stmt.value)


def _unrolled(loop: ast.Stmt) -> ast.Stmt:
    """One straight-line copy of *loop*'s body (plus a For's init)."""
    body: list[ast.Stmt] = []
    if isinstance(loop, ast.For):
        if loop.init is not None:
            body.append(loop.init)
        body.append(loop.body)
    elif isinstance(loop, (ast.While, ast.DoWhile)):
        body.append(loop.body)
    else:  # pragma: no cover - callers filter to loops
        raise TypeError(f"not a loop: {type(loop).__name__}")
    return ast.Block(loop.line, loop.col, body=body)


# --------------------------------------------------------------------------
# Reduction engine
# --------------------------------------------------------------------------


@dataclass
class ReductionStep:
    """One accepted transformation."""

    description: str
    nodes_before: int
    nodes_after: int
    #: Source snapshot *after* this step (for monotonicity re-checks).
    source: str = field(repr=False, default="")


@dataclass
class ReductionResult:
    """Outcome of reducing one program."""

    original_source: str
    reduced_source: str
    original_nodes: int
    reduced_nodes: int
    steps: list[ReductionStep] = field(default_factory=list)
    #: Predicate evaluations consumed (candidate tests, not acceptances).
    tests_run: int = 0
    #: True when a full sweep accepted nothing (1-minimal fixpoint);
    #: False when a budget stopped the reduction early.
    reached_fixpoint: bool = False

    @property
    def reduction_ratio(self) -> float:
        if self.original_nodes == 0:
            return 1.0
        return self.reduced_nodes / self.original_nodes


class Reducer:
    """Greedy fixpoint delta-debugging over the transformation menu."""

    def __init__(
        self,
        predicate: Callable[[Candidate], bool],
        step_budget: int = DEFAULT_STEP_BUDGET,
        test_budget: int = DEFAULT_TEST_BUDGET,
    ) -> None:
        if step_budget < 1:
            raise ValueError(f"step_budget must be >= 1, got {step_budget}")
        self.predicate = predicate
        self.step_budget = step_budget
        self.test_budget = test_budget

    def reduce(self, source: str) -> ReductionResult:
        """Reduce *source*, which must already satisfy the predicate."""
        current = Candidate.parse(source)
        nodes = count_nodes(current.program)
        result = ReductionResult(
            original_source=source,
            reduced_source=source,
            original_nodes=nodes,
            reduced_nodes=nodes,
        )
        if not self.predicate(current):
            raise ReproError(
                "reduction requires an interesting starting point; the "
                "predicate rejected the original program"
            )
        #: Digests of candidate texts already tested and rejected for the
        #: current snapshot generation (avoids re-testing identical dead
        #: ends), and of texts that do not parse (never valid again).
        rejected: set[str] = set()
        broken: set[str] = set()
        while True:
            for label, mutate in _mutations(current.program):
                if (
                    len(result.steps) >= self.step_budget
                    or result.tests_run >= self.test_budget
                ):
                    return self._finish(result, current.source, nodes)
                text = _print_mutant(current.program, mutate)
                if text is None or text == current.source:
                    continue
                digest = hashlib.sha256(text.encode()).hexdigest()
                if digest in rejected or digest in broken:
                    continue
                candidate = self._apply(text)
                if candidate is None:
                    broken.add(digest)
                    continue
                result.tests_run += 1
                if not self.predicate(candidate):
                    rejected.add(digest)
                    continue
                nodes_after = count_nodes(candidate.program)
                result.steps.append(
                    ReductionStep(
                        description=label,
                        nodes_before=nodes,
                        nodes_after=nodes_after,
                        source=candidate.source,
                    )
                )
                # Re-enumerate against the new snapshot: indices into the
                # old AST are stale after a mutation.
                current, nodes = candidate, nodes_after
                rejected.clear()
                break
            else:
                result.reached_fixpoint = True
                return self._finish(result, current.source, nodes)

    @staticmethod
    def _apply(text: str) -> Candidate | None:
        """The candidate *text* parses to, or None when it no longer
        parses/checks (e.g. a dropped declaration with surviving uses) —
        such text never reaches the predicate."""
        try:
            return Candidate.parse(text)
        except ReproError:
            return None

    @staticmethod
    def _finish(result: ReductionResult, source: str, nodes: int) -> ReductionResult:
        result.reduced_source = source
        result.reduced_nodes = nodes
        return result


def _mutations(program: ast.Program):
    """``(label, mutate)`` for every transformation of *program*, in menu
    order."""
    for pass_name, candidates in _Candidates(program).passes():
        for description, mutate in candidates:
            yield f"{pass_name}: {description}", mutate


def _print_mutant(program: ast.Program, mutate) -> str | None:
    """Source of *mutate* applied to a deep copy of *program*, or None
    when the mutation or the printer raises :class:`ReproError`."""
    mutated = copy.deepcopy(program)
    try:
        mutate(mutated)
        return to_source(mutated)
    except ReproError:
        return None


def single_step_variants(source: str):
    """Yield every valid one-step transformation of *source*, as a
    :class:`Candidate`.

    *source* is parsed once; each yielded candidate re-parses and
    re-checks cleanly.  The campaign's good-twin stabilization search
    walks these with an *inverted* interestingness test (non-divergent
    and oracle-clean).
    """
    program = load(source)
    for _label, mutate in _mutations(program):
        text = _print_mutant(program, mutate)
        if text is None or text == source:
            continue
        candidate = Reducer._apply(text)
        if candidate is not None:
            yield candidate
