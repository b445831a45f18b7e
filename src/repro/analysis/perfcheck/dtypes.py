"""Static dtype propagation through NumPy expression trees.

The mixed-precision contract of the solver (paper Section 5: float32
block *storage*, float64 SoA *compute*) is only as good as the kernels'
dtype hygiene: one ``np.float64`` scalar array smuggled into a float32
expression silently doubles the memory traffic of the whole chain.  This
module infers dtype labels for the locals of one kernel function by
abstract interpretation over its statements, tracking the evidence the
source itself provides:

* explicit ``dtype=`` keywords and ``.astype(...)`` calls;
* the contract names ``COMPUTE_DTYPE`` (float64) / ``STORAGE_DTYPE``
  (float32) and the layer helpers ``aos_to_soa`` / ``soa_to_aos`` /
  ``zeros_aos`` with their documented defaults;
* ``*_like`` constructors, which inherit their argument's label;
* NEP 50 promotion semantics: python scalars are *weak* (``f32_array *
  2.0`` stays float32) while ``np.float64(x)`` / dtype-less
  ``np.asarray(scalar)`` results are *strong* (they promote).

Whatever has no evidence stays :data:`UNKNOWN` and never participates in
a finding -- the analyzer reports only provable promotions (rule CP001)
and provably strong scalar contamination (rule CP002).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from ..program import call_name, keyword

#: Dtype lattice labels.
F32 = "float32"
F64 = "float64"
PYFLOAT = "pyfloat"  #: weak python float scalar (NEP 50)
PYINT = "pyint"  #: weak python int scalar (NEP 50)
UNKNOWN = "unknown"

#: Constructor calls whose ``dtype=`` keyword (or first-argument label,
#: for the ``*_like`` family) decides the result dtype.
_CONSTRUCTORS = frozenset({
    "empty", "zeros", "ones", "full", "array", "asarray",
    "ascontiguousarray", "asfortranarray",
})
_LIKE_CONSTRUCTORS = frozenset({"empty_like", "zeros_like", "ones_like",
                                "full_like"})

#: Elementwise functions that propagate the join of their operand labels.
ELEMENTWISE = frozenset({
    "sqrt", "abs", "absolute", "fabs", "maximum", "minimum", "fmin",
    "fmax", "where", "exp", "log", "log2", "log10", "power", "add",
    "subtract", "multiply", "divide", "true_divide", "negative", "square",
    "sign", "clip", "hypot", "copysign", "mod", "floor_divide",
    "reciprocal", "moveaxis", "swapaxes", "stack", "concatenate",
})

#: Repo-specific helpers with documented dtype defaults
#: (:mod:`repro.physics.state`).
_HELPER_DTYPES = {
    "aos_to_soa": F64,
    "soa_to_aos": F32,
    "zeros_aos": F32,
}

#: Contract constant names (:mod:`repro.physics.state`).
_CONTRACT_NAMES = {"COMPUTE_DTYPE": F64, "STORAGE_DTYPE": F32}


@dataclass(frozen=True)
class Promotion:
    """One provable float32/float64 mix inside a single expression."""

    node: ast.AST  #: the offending BinOp / call node
    left: str  #: dtype label of one operand
    right: str  #: dtype label of the other


@dataclass(frozen=True)
class StrongScalar:
    """One dtype-less scalar-array construction (CP002 evidence)."""

    node: ast.Call  #: the ``np.asarray(scalar)`` / ``np.float64`` call
    func: str  #: constructor name


def dtype_label(node: ast.expr | None) -> str:
    """Label of a dtype-valued expression (``np.float32``, contract names,
    ``"float32"`` strings); :data:`UNKNOWN` when undecidable."""
    if node is None:
        return UNKNOWN
    if isinstance(node, ast.Attribute):
        return dtype_label(ast.Name(id=node.attr))
    if isinstance(node, ast.Name):
        if node.id in _CONTRACT_NAMES:
            return _CONTRACT_NAMES[node.id]
        if node.id in ("float32", "single"):
            return F32
        if node.id in ("float64", "double", "float_"):
            return F64
        return UNKNOWN
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value in ("float32", "f4", "<f4"):
            return F32
        if node.value in ("float64", "f8", "<f8"):
            return F64
    if (
        isinstance(node, ast.Call)
        and call_name(node) == "dtype"
        and node.args
    ):
        return dtype_label(node.args[0])
    return UNKNOWN


def join(a: str, b: str) -> str:
    """NEP 50 join of two operand labels (result label of a binop)."""
    if a == UNKNOWN or b == UNKNOWN:
        return UNKNOWN
    if F64 in (a, b) and F32 in (a, b):
        return F64  # the (flagged) promotion
    for strong in (F64, F32):
        if strong in (a, b):
            return strong  # weak python scalars do not promote arrays
    if PYFLOAT in (a, b):
        return PYFLOAT
    return PYINT


class DtypeInference:
    """Per-function dtype abstract interpreter.

    Statements execute in source order over an environment mapping local
    names to lattice labels; every expression evaluation records the
    provable promotions and strong-scalar constructions it encounters.
    """

    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef):
        self.fn = fn
        self.env: dict[str, str] = {}
        self.promotions: list[Promotion] = []
        self.strong_scalars: list[StrongScalar] = []

    def run(self) -> "DtypeInference":
        """Interpret the function body; returns self (fluent)."""
        for stmt in self.fn.body:
            self._exec(stmt)
        return self

    # -- statements -----------------------------------------------------

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            label = self.eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, label, stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind(stmt.target, self.eval(stmt.value), stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            left = self._target_label(stmt.target)
            right = self.eval(stmt.value)
            self._check_mix(stmt, left, right)
        elif isinstance(stmt, (ast.For, ast.While)):
            for s in stmt.body:
                self._exec(s)
        elif isinstance(stmt, ast.If):
            for s in stmt.body + stmt.orelse:
                self._exec(s)
        elif isinstance(stmt, ast.With):
            for s in stmt.body:
                self._exec(s)
        elif isinstance(stmt, (ast.Return, ast.Expr)):
            if stmt.value is not None:
                self.eval(stmt.value)

    def _bind(self, target: ast.expr, label: str, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = label
        elif isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            for t, v in zip(target.elts, value.elts):
                self._bind(t, self.eval(v), v)
        elif isinstance(target, ast.Tuple):
            for t in target.elts:
                if isinstance(t, ast.Name):
                    self.env[t.id] = label
        elif isinstance(target, ast.Subscript):
            base = self._target_label(target)
            self._check_mix(target, base, label)

    def _target_label(self, target: ast.expr) -> str:
        if isinstance(target, ast.Name):
            return self.env.get(target.id, UNKNOWN)
        if isinstance(target, ast.Subscript):
            return self._target_label(target.value)
        return UNKNOWN

    def _check_mix(self, node: ast.AST, a: str, b: str) -> None:
        if {a, b} == {F32, F64}:
            self.promotions.append(Promotion(node=node, left=a, right=b))

    # -- expressions ----------------------------------------------------

    def eval(self, node: ast.expr) -> str:
        """Label of an expression; records promotion/contamination
        evidence found while evaluating it."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return UNKNOWN
            if isinstance(node.value, float):
                return PYFLOAT
            if isinstance(node.value, int):
                return PYINT
            return UNKNOWN
        if isinstance(node, ast.Name):
            return self.env.get(node.id, UNKNOWN)
        if isinstance(node, ast.Subscript):
            self.eval(node.slice) if isinstance(node.slice, ast.expr) else None
            return self.eval(node.value)
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left)
            right = self.eval(node.right)
            self._check_mix(node, left, right)
            return join(left, right)
        if isinstance(node, ast.Compare):
            self.eval(node.left)
            for c in node.comparators:
                self.eval(c)
            return UNKNOWN
        if isinstance(node, (ast.Tuple, ast.List)):
            for e in node.elts:
                self.eval(e)
            return UNKNOWN
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return join(self.eval(node.body), self.eval(node.orelse))
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            return UNKNOWN
        return UNKNOWN

    def _eval_call(self, call: ast.Call) -> str:
        name = call_name(call)
        arg_labels = [self.eval(a) for a in call.args]
        for kw in call.keywords:
            if kw.arg != "dtype":
                self.eval(kw.value)

        if name == "astype" and call.args:
            return dtype_label(call.args[0])
        if name in ("float32", "single"):
            return F32
        if name in ("float64", "double"):
            self._record_strong(call, name)
            return F64
        if name in _HELPER_DTYPES:
            explicit = dtype_label(keyword(call, "dtype"))
            return explicit if explicit != UNKNOWN else _HELPER_DTYPES[name]
        if name in _LIKE_CONSTRUCTORS:
            explicit = dtype_label(keyword(call, "dtype"))
            if explicit != UNKNOWN:
                return explicit
            return arg_labels[0] if arg_labels else UNKNOWN
        if name in _CONSTRUCTORS:
            explicit = dtype_label(keyword(call, "dtype"))
            if explicit != UNKNOWN:
                return explicit
            if name in ("array", "asarray") and arg_labels:
                if arg_labels[0] in (PYFLOAT, PYINT):
                    # dtype-less scalar -> strong float64 0-d array.
                    self._record_strong(call, name)
                    return F64
                return arg_labels[0]
            if name == "ascontiguousarray" and arg_labels:
                return arg_labels[0]
            return UNKNOWN
        if name in ELEMENTWISE:
            out = UNKNOWN if not arg_labels else arg_labels[0]
            for lab in arg_labels[1:]:
                self._check_mix(call, out, lab)
                out = join(out, lab)
            return out
        return UNKNOWN

    def _record_strong(self, call: ast.Call, name: str) -> None:
        if name in ("float64", "double"):
            self.strong_scalars.append(StrongScalar(node=call, func=name))
            return
        if call.args:
            arg = call.args[0]
            label = (
                self.env.get(arg.id, UNKNOWN)
                if isinstance(arg, ast.Name)
                else self.eval(arg)
                if isinstance(arg, ast.Constant)
                else UNKNOWN
            )
            if label in (PYFLOAT, PYINT) or isinstance(arg, ast.Constant):
                self.strong_scalars.append(StrongScalar(node=call, func=name))


def infer(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> DtypeInference:
    """Run dtype inference over one function; returns the interpreter
    with its ``promotions`` and ``strong_scalars`` evidence lists."""
    return DtypeInference(fn).run()
