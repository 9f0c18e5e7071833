"""Arithmetic expression parsing for the command line.

Grammar over one variable x: numeric literals, + - * / ^ (with ^ binding
tighter than unary minus and associating to the right), the functions
sin cos exp ln sqrt abs gamma, and the constants pi and e.  Parsed
expressions evaluate to floats and differentiate symbolically; the seven
function heads are closed under differentiation except gamma (its
derivative needs the digamma function, which the grammar cannot express),
so rl_derivative, the one operator reading f', takes fourth-order finite
differences of those.

:func:`to_real_function` compiles an expression at once, and builds (folded,
so ``1.5*x^2`` has the derivative ``1.5*(2*x)``) and compiles its derivative
at the derivative's first call, to straight-line Python code with one
assignment per node; the tree walker :func:`evaluate` is the reference
those functions match bit for bit and the path that raises their domain errors.
"""

from __future__ import annotations

import math
import operator
import threading
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


@dataclass(frozen=True)
class _Token:
    kind: str  # num ident op lparen rparen end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE" and (
                j + 1 < n and (text[j + 1].isdigit() or text[j + 1] in "+-" and j + 2 < n and text[j + 2].isdigit())
            ):
                j += 2
                while j < n and text[j].isdigit():
                    j += 1
            out.append(_Token("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^":
            out.append(_Token("op", ch, i))
            i += 1
            continue
        if ch == "(":
            out.append(_Token("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            out.append(_Token("rparen", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    out.append(_Token("end", "", n))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(f"found {tok.text or 'end of input'!r}", tok.pos, (what,))
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.pos, ("operator", "end of input"))
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Bin(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Bin(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            return Bin("^", node, self.unary())
        return node

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            try:
                value = float(tok.text)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):  # malformed, or overflows to infinity
                raise ExprSyntaxError(f"bad number literal {tok.text!r}", tok.pos)
            return Num(value)
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name == "x":
                return Var()
            if name in CONSTANTS:
                return Const(name)
            if name in FUNCTIONS:
                self.expect("lparen", "'('")
                arg = self.expr()
                self.expect("rparen", "')'")
                return Call(name, arg)
            raise UnknownIdentifier(f"unknown identifier {name!r}", tok.pos)
        if tok.kind == "lparen":
            self.advance()
            node = self.expr()
            self.expect("rparen", "')'")
            return node
        raise ExprSyntaxError(
            f"found {tok.text or 'end of input'!r}", tok.pos, ("number", "identifier", "'('")
        )


def parse_expr(text: str) -> Expr:
    """Parse an expression; raises ExprSyntaxError / UnknownIdentifier."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", 0) from None


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


def _contains(node: Expr, test: Callable[[Expr], bool]) -> bool:
    """Whether test holds at node or at a node below it."""
    if test(node):
        return True
    if isinstance(node, (Neg, Call)):
        return _contains(node.arg, test)
    if isinstance(node, Bin):
        return _contains(node.left, test) or _contains(node.right, test)
    return False


def _contains_var(node: Expr) -> bool:
    return _contains(node, lambda n: isinstance(n, Var))


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
    it is built (:func:`_bin`), and built only at the derivative's first call."""
    if isinstance(node, (Num, Const)):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0)
    if isinstance(node, Neg):
        da = differentiate(node.arg)
        return None if da is None else _neg(da)
    if isinstance(node, Bin):
        dl = differentiate(node.left)
        dr = differentiate(node.right)
        if dl is None or dr is None:
            return None
        l, r = node.left, node.right
        if node.op in "+-":
            return _bin(node.op, dl, dr)
        if node.op == "*":
            return _bin("+", _bin("*", dl, r), _bin("*", l, dr))
        if node.op == "/":
            num = _bin("-", _bin("*", dl, r), _bin("*", l, dr))
            return _bin("/", num, _bin("^", r, Num(2.0)))
        # power cases
        if not _contains_var(r):
            power = _bin("^", l, _bin("-", r, Num(1.0)))
            return _bin("*", _bin("*", r, power), dl)
        if not _contains_var(l):
            return _bin("*", _bin("*", node, Call("ln", l)), dr)
        bracket = _bin("+", _bin("*", dr, Call("ln", l)), _bin("/", _bin("*", r, dl), l))
        return _bin("*", node, bracket)
    if isinstance(node, Call):
        da = differentiate(node.arg)
        if da is None or node.fn == "gamma":
            return None
        u = node.arg
        if node.fn == "sin":
            outer: Expr = Call("cos", u)
        elif node.fn == "cos":
            outer = Neg(Call("sin", u))
        elif node.fn == "exp":
            outer = Call("exp", u)
        elif node.fn == "ln":
            return _bin("/", da, u)
        elif node.fn == "sqrt":
            return _bin("/", da, Bin("*", Num(2.0), Call("sqrt", u)))
        else:  # abs
            outer = Bin("/", u, Call("abs", u))
        return _bin("*", outer, da)
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


def _deferred(node: Expr) -> Callable[[float], float]:
    """The derivative of node, taken by :func:`differentiate` and compiled by
    :func:`_compile` at the first call, once even when threads make that call
    together.  The closure holds no reference back to itself, so it leaves
    nothing for the cyclic collector."""
    compiled: list[Callable[[float], float]] = []
    lock = threading.Lock()

    def deferred(x: float) -> float:
        if not compiled:
            with lock:
                if not compiled:
                    try:
                        compiled.append(_compile(differentiate(node)))
                    except RecursionError:
                        raise ExprSyntaxError("expression nested too deeply", 0) from None
        return compiled[0](x)

    return deferred


def to_real_function(node: Expr, a: float, b: float) -> RealFunction:
    """Wrap an expression (and its symbolic derivative, when it exists) as a
    RealFunction on [a, b].  The expression is compiled by :func:`_compile`
    at once.  Its derivative exists unless it calls gamma, so ``deriv is
    None`` exactly then; it is taken and compiled only when first called,
    which only rl_derivative does."""
    try:
        has_gamma = _contains(node, lambda n: isinstance(n, Call) and n.fn == "gamma")
        deriv = None if has_gamma else _deferred(node)
        return RealFunction(fn=_compile(node), a=a, b=b, deriv=deriv, label=to_string(node))
    except RecursionError:  # a long flat chain, which the parser builds without recursing
        raise ExprSyntaxError("expression nested too deeply", 0) from None
