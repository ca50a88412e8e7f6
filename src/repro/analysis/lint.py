"""Static lint for device thread programs (the Op protocol).

Device code in this repo is Python generators that ``yield``
:class:`~repro.simt.instructions.Op` instances; the interpreter executes
the op and sends results back. The protocol has rules the runtime cannot
cheaply enforce, so this AST pass does — over every *device generator* in
a source tree (a function is one when it is a generator and either its
name starts with ``d_`` or it directly yields a known Op constructor):

====  =================================================================
rule  meaning
====  =================================================================
R1    **op-protocol** — every direct ``yield`` must yield a constructed
      Op (``yield Load(...)``, ``yield Branch()``, …). A bare ``yield``
      or a non-Op value would crash — or worse, silently skew — the
      executor. (``yield from`` delegates to another device generator
      and is always fine.)
R2    **unused-result** — a ``yield Load(...)`` or ``yield
      AtomicCAS(...)`` whose result is discarded (statement position) is
      dead traffic: the executor charges a transaction for a value the
      program never sees. ``AtomicAdd``/``AtomicExch`` are exempt — they
      are legitimately used for their side effect (version bumps).
R3    **host-call** — device code touches memory only through yielded
      Ops. The arena has no accessor API, so a method-style access on it
      (``arena.read``, ``arena.write``, ``arena.atomic_*``,
      gathers/scatters) in device code is a stale or invented call that
      would bypass the instruction stream and the SIMT cost model.
      (Host-plane idioms — reading ``arena.data`` to charge equivalent
      Stores, calling ``tree.upsert`` under a held latch — stay legal:
      they are the documented "instantaneous host mutation" device.)
R4    **missing-branch** — a value obtained from a direct data yield
      (``Load``/atomic) that feeds an ``if``/``while``/``for`` test must
      have a ``yield Branch()`` between the yield and the test:
      data-dependent control flow costs a control instruction and is
      where divergence charges come from. Values from ``yield from`` are
      exempt (the callee charges its own branches), and a delegation
      between the yield and the test also satisfies the rule.
====  =================================================================

Run as ``python -m repro.analysis.lint [paths...]`` (defaults to the
installed ``repro`` package); exits non-zero when findings exist.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path

#: Op constructors a device program may yield (repro.simt.instructions)
OP_NAMES = frozenset(
    {"Load", "Store", "AtomicCAS", "AtomicAdd", "AtomicExch",
     "Alu", "Branch", "Mark", "Noop", "WaitGE"}
)
#: module-level op singletons device code may yield directly (hot paths
#: avoid allocating the op per slot; see simt/instructions.py)
OP_SINGLETONS = {"BRANCH": "Branch"}
#: ops whose yielded result carries data (taint sources for R4)
DATA_OPS = frozenset({"Load", "AtomicCAS", "AtomicAdd", "AtomicExch"})
#: ops whose result must be consumed (R2)
CONSUME_OPS = frozenset({"Load", "AtomicCAS"})
#: method-style arena accesses forbidden in device code (R3)
ARENA_ACCESSORS = frozenset(
    {"read", "write", "atomic_cas", "atomic_add", "atomic_exch",
     "read_gather", "write_scatter"}
)

_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


@dataclass(frozen=True)
class Finding:
    """One lint violation."""

    path: str
    line: int
    rule: str
    func: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.func}: {self.message}"


# --------------------------------------------------------------------- #
# AST helpers
# --------------------------------------------------------------------- #
def _walk_own(node: ast.AST):
    """Walk a function's own nodes, not descending into nested scopes."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, _NESTED_SCOPES):
            stack.extend(ast.iter_child_nodes(child))


def _yield_op_name(node: ast.Yield) -> str | None:
    """Op name yielded by ``yield Call(...)`` or an op singleton, else None.

    Hot device code may yield a shared immutable instance (``yield BRANCH``)
    instead of constructing the op per slot; the singleton names map to
    their op class here.
    """
    v = node.value
    if isinstance(v, ast.Call) and isinstance(v.func, ast.Name):
        return v.func.id
    if isinstance(v, ast.Name):
        return OP_SINGLETONS.get(v.id)
    return None


def _own_yields(fn: ast.AST) -> tuple[list[ast.Yield], list[ast.YieldFrom]]:
    ys, yfs = [], []
    for n in _walk_own(fn):
        if isinstance(n, ast.Yield):
            ys.append(n)
        elif isinstance(n, ast.YieldFrom):
            yfs.append(n)
    return ys, yfs


def _is_device_function(fn: ast.FunctionDef) -> bool:
    ys, yfs = _own_yields(fn)
    if not ys and not yfs:
        return False  # not a generator
    if fn.name.startswith("d_"):
        return True
    return any(_yield_op_name(y) in OP_NAMES for y in ys)


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _target_names(target: ast.AST) -> list[str]:
    """Plain Name targets of an assignment (tuples unpacked)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in target.elts:
            out.extend(_target_names(elt))
        return out
    return []


# --------------------------------------------------------------------- #
# per-function lint
# --------------------------------------------------------------------- #
class _FunctionLinter:
    def __init__(self, fn: ast.FunctionDef, path: str, findings: list[Finding]):
        self.fn = fn
        self.path = path
        self.findings = findings
        #: tainted name -> source line of its originating data yield
        self.taint: dict[str, int] = {}
        #: lines holding a yield Branch() or a yield-from delegation
        self.branch_lines: list[int] = []

    def emit(self, line: int, rule: str, message: str) -> None:
        self.findings.append(
            Finding(self.path, line, rule, self.fn.name, message)
        )

    # -- R1 / R2 / R3 (structural, order-independent) -------------------- #
    def check_structure(self) -> None:
        stmt_yields = {
            id(s.value)
            for s in _walk_own(self.fn)
            if isinstance(s, ast.Expr) and isinstance(s.value, ast.Yield)
        }
        ys, _ = _own_yields(self.fn)
        for y in ys:
            name = _yield_op_name(y)
            if name not in OP_NAMES:
                got = "bare yield" if y.value is None else ast.unparse(y.value)
                self.emit(
                    y.lineno, "R1-op-protocol",
                    f"device code must yield an Op, got: {got}",
                )
            elif name in CONSUME_OPS and id(y) in stmt_yields:
                self.emit(
                    y.lineno, "R2-unused-result",
                    f"result of yield {name}(...) is discarded",
                )
        for n in _walk_own(self.fn):
            if (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr in ARENA_ACCESSORS
                and "arena" in ast.unparse(n.func.value)
            ):
                self.emit(
                    n.lineno, "R3-host-call",
                    f"{ast.unparse(n.func)}() in device code: the arena has "
                    "no accessor API; touch memory only through yielded Ops",
                )

    # -- R4 (linear taint scan) ------------------------------------------ #
    def check_branches(self) -> None:
        self._scan(self.fn.body)

    def _note_value_yields(self, value: ast.AST) -> tuple[bool, bool]:
        """Record Branch/delegation lines inside ``value``; return
        ``(has_data_yield, has_yield_from)``."""
        has_data = has_yf = False
        for n in ast.walk(value):
            if isinstance(n, _NESTED_SCOPES):
                continue
            if isinstance(n, ast.Yield):
                name = _yield_op_name(n)
                if name == "Branch":
                    self.branch_lines.append(n.lineno)
                elif name in DATA_OPS:
                    has_data = True
            elif isinstance(n, ast.YieldFrom):
                self.branch_lines.append(n.lineno)
                has_yf = True
        return has_data, has_yf

    def _check_test(self, test: ast.AST, line: int) -> None:
        for name in _names_in(test):
            origin = self.taint.get(name)
            if origin is None:
                continue
            if not any(origin < b <= line for b in self.branch_lines):
                self.emit(
                    line, "R4-missing-branch",
                    f"'{name}' (from a data yield at line {origin}) drives "
                    "control flow without an intervening yield Branch()",
                )

    def _assign(self, targets: list[ast.AST], value: ast.AST, line: int) -> None:
        has_data, has_yf = self._note_value_yields(value)
        names: list[str] = []
        for t in targets:
            names.extend(_target_names(t))
        if has_data and not has_yf:
            for n in names:
                self.taint[n] = line
            return
        if has_yf:
            for n in names:
                self.taint.pop(n, None)
            return
        # plain assignment: propagate the earliest tainted origin, if any
        used = _names_in(value) & self.taint.keys()
        if used:
            origin = min(self.taint[n] for n in used)
            # already satisfied by a Branch between origin and here? then
            # the derived value is clean
            if any(origin < b <= line for b in self.branch_lines):
                for n in names:
                    self.taint.pop(n, None)
            else:
                for n in names:
                    self.taint[n] = origin
        else:
            for n in names:
                self.taint.pop(n, None)

    def _scan(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, _NESTED_SCOPES):
                continue
            if isinstance(stmt, ast.Expr):
                self._note_value_yields(stmt.value)
            elif isinstance(stmt, ast.Assign):
                self._assign(stmt.targets, stmt.value, stmt.lineno)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                self._assign([stmt.target], stmt.value, stmt.lineno)
            elif isinstance(stmt, ast.AugAssign):
                # x += f(...): taint sticks to x; new data yields re-taint
                has_data, _ = self._note_value_yields(stmt.value)
                if has_data:
                    for n in _target_names(stmt.target):
                        self.taint[n] = stmt.lineno
            elif isinstance(stmt, ast.If):
                self._check_test(stmt.test, stmt.lineno)
            elif isinstance(stmt, ast.While):
                self._check_test(stmt.test, stmt.lineno)
            elif isinstance(stmt, ast.For):
                self._check_test(stmt.iter, stmt.lineno)
            elif isinstance(stmt, (ast.Return, ast.Raise, ast.Assert)):
                for n in ast.walk(stmt):
                    if isinstance(n, ast.YieldFrom):
                        self.branch_lines.append(n.lineno)
            # recurse into compound bodies in source order
            for attr in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, attr, None)
                if inner:
                    self._scan(inner)
            for handler in getattr(stmt, "handlers", []) or []:
                self._scan(handler.body)


# --------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------- #
def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one module's source text."""
    findings: list[Finding] = []
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        findings.append(
            Finding(path, exc.lineno or 0, "R0-syntax", "<module>", str(exc))
        )
        return findings
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and _is_device_function(node):
            fl = _FunctionLinter(node, path, findings)
            fl.check_structure()
            fl.check_branches()
    findings.sort(key=lambda f: (f.path, f.line))
    return findings


def lint_file(path: str | Path) -> list[Finding]:
    p = Path(path)
    return lint_source(p.read_text(encoding="utf-8"), str(p))


def lint_paths(paths) -> list[Finding]:
    """Lint files and/or directory trees (``*.py``, sorted, recursively)."""
    findings: list[Finding] = []
    for path in paths:
        p = Path(path)
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in files:
            findings.extend(lint_file(f))
    return findings


def default_target() -> Path:
    """The installed ``repro`` package tree."""
    return Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    targets = args or [default_target()]
    findings = lint_paths(targets)
    for f in findings:
        print(f)
    roots = ", ".join(str(t) for t in targets)
    print(f"device-code lint: {len(findings)} finding(s) in {roots}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
