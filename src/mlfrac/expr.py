"""Arithmetic expression parsing for the command line.

Grammar over one variable x, one rule per method of the parser::

    sums     = products { ("+" | "-") products }
    products = unary { ("*" | "/") unary }
    unary    = "-" unary | atom [ "^" unary ]
    atom     = number | "x" | "pi" | "e" | function "(" sums ")" | "(" sums ")"

so ^ binds tighter than unary minus and associates to the right.  The
functions are sin cos exp ln sqrt abs gamma.  Numbers are written in
decimal digits; a numeral that is no decimal digit (such as a superscript
two) starts an unknown identifier.  Parentheses and calls nest at most
_MAX_NESTING deep, and a chain of - or ^ as deep as Python's recursion
limit allows, one frame per link; deeper input is an ExprSyntaxError.

Parsed expressions evaluate to floats and differentiate symbolically,
except through gamma, whose derivative needs digamma; for those
rl_derivative, the one operator reading f', takes finite differences.
:func:`to_real_function` builds a tree's function and its derivative
(folded, so ``1.5*x^2`` has the derivative ``1.5*(2*x)``) together at the
tree's first use, as straight-line Python code with one assignment per
node; the tree walker :func:`evaluate` is the reference those functions
match bit for bit and the path that raises their domain errors.  Both steps
are memoized (the last 256 texts and trees), so a process parses each text
and builds its function and derivative once.  A tree too deep for either,
such as a tower x^x^...^x some hundreds high, is an ExprSyntaxError for
every command, even one that never reads the derivative.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, ExprSyntaxError, UnknownIdentifier
from .quadrature import RealFunction
from .special import gamma_fn

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt", "abs", "gamma")
CONSTANTS = {"pi": math.pi, "e": math.e}

# The primitives behind each operator and function head.  math.pow keeps the
# arithmetic real: a negative base with a fractional exponent is a domain
# violation, not a complex value.
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": math.pow}
_FUNCTIONS = dict(zip(FUNCTIONS, (math.sin, math.cos, math.exp, math.log, math.sqrt, abs, gamma_fn)))


class Expr:
    """Base class of AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Const(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


# One alternative per token kind, tried in order; whitespace is skipped and
# anything else is an unexpected character.
_TOKEN = re.compile(
    r"(?P<num>\.?\d[\d.]*(?:[eE][+-]?\d+)?)|(?P<ident>[^\W\d]\w*)|(?P<op>[-+*/^()])|\s+|(?P<bad>\S)"
)
_MAX_NESTING = 200  # parentheses and function calls, one inside the other


class _Parser:
    """Recursive descent with one method per rule of the grammar, over the
    (kind, text, offset) tokens of text."""

    def __init__(self, text: str):
        self.tokens = []
        for m in _TOKEN.finditer(text):
            if m.lastgroup == "bad":
                raise ExprSyntaxError(f"unexpected character {m.group()!r}", m.start())
            if m.lastgroup:
                self.tokens.append((m.lastgroup, m.group(), m.start()))
        self.tokens.append(("end", "", len(text)))
        self.i = self.depth = 0

    def take(self, *texts: str) -> str | None:
        """The next token's text, consumed, if it is one of texts."""
        text = self.tokens[self.i][1]
        if text not in texts:
            return None
        self.i += 1
        return text

    def expect(self, text: str) -> None:
        if not self.take(text):
            _, found, pos = self.tokens[self.i]
            raise ExprSyntaxError(f"found {found or 'end of input'!r}", pos, (repr(text),))

    def sums(self) -> Expr:
        node = self.products()
        while op := self.take("+", "-"):
            node = Bin(op, node, self.products())
        return node

    def products(self) -> Expr:
        node = self.unary()
        while op := self.take("*", "/"):
            node = Bin(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.take("-"):
            return Neg(self.unary())
        node = self.atom()
        return Bin("^", node, self.unary()) if self.take("^") else node

    def atom(self) -> Expr:
        kind, text, pos = self.tokens[self.i]
        self.i += 1
        if kind == "num":
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):  # malformed, or overflows to infinity
                raise ExprSyntaxError(f"bad number literal {text!r}", pos)
            return Num(value)
        if kind == "ident" and text not in FUNCTIONS:
            if text == "x":
                return Var()
            if text in CONSTANTS:
                return Const(text)
            raise UnknownIdentifier(f"unknown identifier {text!r}", pos)
        if kind == "ident":  # a function call
            self.expect("(")
        elif text != "(":
            raise ExprSyntaxError(f"found {text or 'end of input'!r}", pos, ("number", "identifier", "'('"))
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ExprSyntaxError("expression nested too deeply", 0)
        node = self.sums()
        self.expect(")")
        self.depth -= 1
        return Call(text, node) if kind == "ident" else node


@functools.lru_cache(maxsize=256)
def parse_expr(text: str) -> Expr:
    """Parse an expression into one shared tree per text; raises ExprSyntaxError / UnknownIdentifier."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(text)
    try:
        node = parser.sums()
    except RecursionError:  # a long chain of unary minus signs or powers
        raise ExprSyntaxError("expression nested too deeply", 0) from None
    kind, rest, pos = parser.tokens[parser.i]
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {rest!r}", pos, ("operator", "end of input"))
    return node


def evaluate(node: Expr, x: float) -> float:
    """Evaluate at x by walking the tree: the reference for the compiled
    functions of :func:`to_real_function`, and their error path.  Domain
    violations (ln/sqrt of a negative number, division by zero, invalid
    powers) and overflows (of a power, exp or gamma) raise DomainError."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Neg):
        return -evaluate(node.arg, x)
    if isinstance(node, Bin):
        lv = evaluate(node.left, x)
        rv = evaluate(node.right, x)
        try:
            return _BINARY[node.op](lv, rv)
        except ZeroDivisionError as exc:
            raise DomainError(f"division by zero at x={x:g}") from exc
        except ValueError as exc:
            raise DomainError(f"invalid power {lv:g}^{rv:g} at x={x:g}") from exc
        except OverflowError as exc:
            raise DomainError(f"{lv:g}^{rv:g} overflows at x={x:g}") from exc
    if isinstance(node, Call):
        v = evaluate(node.arg, x)
        try:
            return _FUNCTIONS[node.fn](v)
        except ValueError as exc:
            raise DomainError(f"{node.fn} of {v:g} is undefined") from exc
        except OverflowError as exc:
            raise DomainError(f"{node.fn} of {v:g} overflows") from exc
    raise TypeError(f"not an Expr node: {node!r}")


_ZERO, _ONE = Num(0.0), Num(1.0)


def _bin(op: str, l: Expr, r: Expr) -> Expr:
    """Bin(op, l, r) with the product rule's zeros and ones folded out.  Two
    literals fold to the value only when the operation neither raises nor
    overflows, so the derivative keeps every error for evaluate to report."""
    if isinstance(l, Num) and isinstance(r, Num):
        try:
            value = _BINARY[op](l.value, r.value)
        except (ArithmeticError, ValueError):
            value = math.nan
        if math.isfinite(value):
            return Num(value)
    if op == "*" and _ZERO in (l, r):
        return _ZERO
    if (op == "*" and r == _ONE) or (op in "+-" and r == _ZERO) or (op == "^" and r == _ONE):
        return l
    if (op == "*" and l == _ONE) or (op == "+" and l == _ZERO):
        return r
    if op == "-" and l == _ZERO:
        return _neg(r)
    return _ONE if op == "^" and r == _ZERO else Bin(op, l, r)


def _neg(arg: Expr) -> Expr:
    return Num(-arg.value) if isinstance(arg, Num) else Neg(arg)


def differentiate(node: Expr) -> Expr | None:
    """Symbolic derivative with respect to x, or None when the expression
    contains gamma (whose derivative leaves the grammar).  It is folded as
    it is built (:func:`_bin`); :func:`to_real_function` builds it once per
    tree, with the tree's function."""
    return _derive(node)[0]


def _derive(node: Expr) -> tuple[Expr | None, bool]:
    """The derivative of node (None if node calls gamma) and whether node
    contains x, taken bottom-up in one pass: a power needs the second to
    choose its rule."""
    if isinstance(node, (Num, Const)):
        return Num(0.0), False
    if isinstance(node, Var):
        return Num(1.0), True
    if isinstance(node, Neg):
        da, has_x = _derive(node.arg)
        return (None if da is None else _neg(da)), has_x
    if isinstance(node, Bin):
        (dl, l_has_x), (dr, r_has_x) = _derive(node.left), _derive(node.right)
        l, r = node.left, node.right
        if dl is None or dr is None:
            d = None
        elif node.op in "+-":
            d = _bin(node.op, dl, dr)
        elif node.op == "*":
            d = _bin("+", _bin("*", dl, r), _bin("*", l, dr))
        elif node.op == "/":
            d = _bin("/", _bin("-", _bin("*", dl, r), _bin("*", l, dr)), _bin("^", r, Num(2.0)))
        elif not r_has_x:  # u^c
            d = _bin("*", _bin("*", r, _bin("^", l, _bin("-", r, Num(1.0)))), dl)
        elif not l_has_x:  # c^v
            d = _bin("*", _bin("*", node, Call("ln", l)), dr)
        else:
            d = _bin("*", node, _bin("+", _bin("*", dr, Call("ln", l)), _bin("/", _bin("*", r, dl), l)))
        return d, l_has_x or r_has_x
    if isinstance(node, Call):
        da, has_x = _derive(node.arg)
        u = node.arg
        if da is None or node.fn == "gamma":
            return None, has_x
        if node.fn == "sin":
            outer: Expr = Call("cos", u)
        elif node.fn == "cos":
            outer = Neg(Call("sin", u))
        elif node.fn == "exp":
            outer = Call("exp", u)
        elif node.fn == "ln":
            return _bin("/", da, u), has_x
        elif node.fn == "sqrt":
            return _bin("/", da, Bin("*", Num(2.0), Call("sqrt", u))), has_x
        else:  # abs
            outer = Bin("/", u, Call("abs", u))
        return _bin("*", outer, da), has_x
    raise TypeError(f"not an Expr node: {node!r}")


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(node: Expr) -> int:
    if isinstance(node, Bin):
        return _PREC[node.op]
    if isinstance(node, Neg) or (isinstance(node, Num) and node.value < 0):  # a folded literal
        return _PREC["neg"]
    return 5


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    short = f"{v:g}"
    return short if float(short) == v else repr(v)


def to_string(node: Expr) -> str:
    """Unparse; the result reparses to a structurally identical tree."""
    if isinstance(node, Num):
        return _fmt_num(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Neg):
        inner = to_string(node.arg)
        if _prec(node.arg) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Bin):
        p = _PREC[node.op]
        ls = to_string(node.left)
        rs = to_string(node.right)
        if node.op == "^":
            if _prec(node.left) <= p:
                ls = f"({ls})"
            if _prec(node.right) < p:
                rs = f"({rs})"
        else:
            if _prec(node.left) < p:
                ls = f"({ls})"
            if _prec(node.right) <= p:
                rs = f"({rs})"
        return f"{ls}{node.op}{rs}"
    if isinstance(node, Call):
        return f"{node.fn}({to_string(node.arg)})"
    raise TypeError(f"not an Expr node: {node!r}")


def _emit(n: Expr, scope: dict, lines: list[str], names: dict[int, str]) -> str:
    """Append the assignments that compute n (after its operands) to lines;
    return the name that holds its value.  names maps id(node) to that name,
    so a subtree shared by a derivative is computed once."""
    if id(n) in names:
        return names[id(n)]
    if isinstance(n, Neg):
        value = f"-{_emit(n.arg, scope, lines, names)}"
    elif isinstance(n, Bin):
        lv, rv = _emit(n.left, scope, lines, names), _emit(n.right, scope, lines, names)
        value = f"pow({lv}, {rv})" if n.op == "^" else f"{lv} {n.op} {rv}"
    elif isinstance(n, Call):
        value = f"{n.fn}({_emit(n.arg, scope, lines, names)})"
    name = names[id(n)] = "x" if isinstance(n, Var) else f"v{len(names)}"
    if isinstance(n, (Neg, Bin, Call)):
        lines.append(f"        {name} = {value}\n")
    elif name != "x":  # a literal or constant; evaluate rejects other types
        scope[name] = evaluate(n, 0.0)
    return name


def _compile(node: Expr) -> Callable[[float], float]:
    """node as one straight-line Python function of x: one assignment per
    distinct inner node, in evaluate's order and with its primitives, so
    every value is bit-identical to evaluate's.  Literals and constants are
    bound as values.  An ArithmeticError (division by zero, overflow) or a
    ValueError falls back to evaluate, which raises the DomainError with its
    message."""
    scope: dict = {"pow": math.pow, "evaluate": evaluate, "node": node, **_FUNCTIONS}
    lines: list[str] = []
    result = _emit(node, scope, lines, {})
    source = "def compiled(x):\n    try:\n" + "".join(lines) + f"        return {result}\n"
    source += "    except (ArithmeticError, ValueError):\n        pass\n    return evaluate(node, x)\n"
    exec(compile(source, "<mlfrac.expr>", "exec"), scope)
    return scope.pop("compiled")  # scope keeps no reference back: no cycle for the collector


class _Same:
    """A tree hashed and compared by identity: value equality would walk the
    tree per lookup, and takes Num(0.0) for Num(-0.0)."""

    def __init__(self, node: Expr):
        self.node = node

    def __hash__(self) -> int:
        return id(self.node)

    def __eq__(self, other: _Same) -> bool:
        return self.node is other.node


@functools.lru_cache(maxsize=256)
def _built(key: _Same) -> tuple:
    """(fn, deriv, label) of key's tree.  The entry holds the tree, so its id
    is not reused while the entry lives, and nothing refers back to it."""
    node = key.node
    d = differentiate(node)
    return _compile(node), None if d is None else _compile(d), to_string(node)


def to_real_function(node: Expr, a: float, b: float) -> RealFunction:
    """Wrap an expression and its symbolic derivative, which exists unless the
    tree calls gamma (``deriv is None`` exactly then), as a new RealFunction
    on [a, b].  Both are compiled at the tree's first use, once for all its
    functions; a tree too deep for either raises ExprSyntaxError."""
    try:
        fn, deriv, label = _built(_Same(node))
        return RealFunction(fn=fn, a=a, b=b, deriv=deriv, label=label)
    except RecursionError:  # a flat chain the parser built in a loop, or a tall tower
        raise ExprSyntaxError("expression nested too deeply", 0) from None
