import gc
import math
import random
import sys
import threading
import time

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlfrac import expr
from mlfrac.errors import DomainError, ExprSyntaxError, PoleError, UnknownIdentifier
from mlfrac.expr import (
    FUNCTIONS,
    Bin,
    Call,
    Const,
    Neg,
    Num,
    Var,
    differentiate,
    evaluate,
    parse_expr,
    to_real_function,
    to_string,
)
from mlfrac.operators import FracOrder, Side, rl_derivative
from mlfrac.quadrature import central_diff


def ev(text, x=0.0):
    return evaluate(parse_expr(text), x)


class TestParseAndEvaluate:
    def test_basic_cases(self):
        assert ev("x^2 + 1", 2.0) == 5.0
        assert ev("2+3*4") == 14.0
        assert abs(ev("sin(pi/2)") - 1.0) <= 1e-15
        assert ev("2^3^2") == 512.0

    def test_precedence_and_unary(self):
        assert ev("-2^2") == -4.0  # ^ binds tighter than unary minus
        assert ev("(-2)^2") == 4.0
        assert ev("2*-3") == -6.0
        assert ev("2^-1") == 0.5
        assert ev("6/3/2") == 1.0  # left associative division
        assert ev("1-2-3") == -4.0

    def test_constants_and_functions(self):
        assert abs(ev("e") - math.e) <= 1e-15
        assert abs(ev("ln(e)") - 1.0) <= 1e-15
        assert ev("sqrt(16)") == 4.0
        assert ev("abs(-3)") == 3.0
        assert ev("gamma(5)") == 24.0

    def test_numbers(self):
        assert ev("1.5e2") == 150.0
        assert ev("2.5E-1") == 0.25
        assert ev(".5") == 0.5

    @pytest.mark.parametrize("text, error, message, offset, expected", [
        ("", ExprSyntaxError, "empty expression", 0, ()),
        ("1 ? 2", ExprSyntaxError, "unexpected character '?'", 2, ()),
        ("1.2.3", ExprSyntaxError, "bad number literal '1.2.3'", 0, ()),
        ("1e999", ExprSyntaxError, "bad number literal '1e999'", 0, ()),
        ("x + foo", UnknownIdentifier, "unknown identifier 'foo'", 4, ()),
        ("sin 1", ExprSyntaxError, "found '1'", 4, ("'('",)),
        ("(1+2", ExprSyntaxError, "found 'end of input'", 4, ("')'",)),
        ("1 + * 2", ExprSyntaxError, "found '*'", 4, ("number", "identifier", "'('")),
        ("1 2", ExprSyntaxError, "trailing input '2'", 2, ("operator", "end of input")),
    ])
    def test_syntax_errors_carry_offsets(self, text, error, message, offset, expected):
        with pytest.raises(ExprSyntaxError) as e:
            parse_expr(text)
        assert type(e.value) is error
        assert str(e.value).startswith(f"{message} at offset {offset}")
        assert (e.value.offset, e.value.expected) == (offset, expected)

    def test_non_finite_literal_is_a_syntax_error(self):
        with pytest.raises(ExprSyntaxError, match="bad number literal '1e999'") as e:
            parse_expr("2 + 1e999*x")
        assert e.value.offset == 4

    def test_too_deep_nesting_is_a_syntax_error(self):
        with pytest.raises(ExprSyntaxError, match="nested too deeply"):
            parse_expr("sin(" * 220 + "x" + ")" * 220)

    def test_long_flat_chain_is_a_syntax_error(self):
        # parsed in a loop, but too deep for differentiate and the compiler
        for op in "*+":
            tree = parse_expr(op.join(["x"] * 3001))
            with pytest.raises(ExprSyntaxError, match="nested too deeply"):
                to_real_function(tree, 0.0, 1.0)

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier) as e:
            parse_expr("x + foo")
        assert e.value.offset == 4
        with pytest.raises(UnknownIdentifier):
            parse_expr("tan(x)")

    def test_domain_violations(self):
        with pytest.raises(DomainError):
            ev("ln(-1)")
        with pytest.raises(DomainError):
            ev("sqrt(0-4)")
        with pytest.raises(DomainError):
            ev("1/x", 0.0)
        with pytest.raises(DomainError):
            ev("(-8)^(1/2)")
        with pytest.raises(PoleError):
            ev("gamma(0)")
        for text in ("exp(1000)", "2^5000", "gamma(200)"):
            with pytest.raises(DomainError, match="overflows"):
                ev(text)


CORPUS = [
    "x",
    "pi",
    "-x",
    "x+1",
    "1-2-3",
    "2*x+3",
    "x*(x+1)",
    "x/(1+x)",
    "6/3/2",
    "2^3^2",
    "(2^3)^2",
    "x^2",
    "-x^2",
    "(-x)^2",
    "2^-x",
    "sin(x)",
    "cos(x^2+1)",
    "exp(-x)",
    "ln(x+2)",
    "sqrt(x^2+1)",
    "abs(x-1)",
    "gamma(x+3)",
    "sin(cos(x))",
    "x*sin(x)+cos(x)/x",
    "e^x",
    "pi*x^2/2",
    "1/(1+exp(-x))",
    "(x+1)*(x-1)",
    "x^(1/2)",
    "sqrt(pi)/2 + x^(3/2)",
]


def _random_expr(rng, depth=0):
    choices = ["num", "x"] if depth > 3 else ["num", "x", "bin", "neg", "call", "pow"]
    kind = rng.choice(choices)
    if kind == "num":
        return f"{rng.uniform(0.5, 4.0):.3g}"
    if kind == "x":
        return "x"
    if kind == "neg":
        return f"-({_random_expr(rng, depth + 1)})"
    if kind == "call":
        fn = rng.choice(["sin", "cos", "exp", "sqrt", "abs"])
        return f"{fn}({_random_expr(rng, depth + 1)})"
    if kind == "pow":
        return f"({_random_expr(rng, depth + 1)})^{rng.randint(1, 3)}"
    op = rng.choice("+-*/")
    return f"({_random_expr(rng, depth + 1)}){op}({_random_expr(rng, depth + 1)})"


def test_print_parse_round_trip_structural():
    rng = random.Random(8)
    cases = list(CORPUS) + [_random_expr(rng) for _ in range(170)]
    assert len(cases) >= 200
    for text in cases:
        tree = parse_expr(text)
        assert parse_expr(to_string(tree)) == tree, text


def test_symbolic_derivative_matches_central_differences():
    safe = [
        ("x^2+3*x", 0.7),
        ("sin(x)*cos(x)", 1.1),
        ("exp(-x^2)", 0.4),
        ("ln(x+2)", 0.0),
        ("sqrt(x^2+1)", 0.9),
        ("x/(1+x)", 0.5),
        ("2^x", 1.3),
        ("x^x", 1.2),
        ("abs(x-2)", 0.5),
        ("1/(1+exp(-x))", 0.2),
        ("pi*x^2/2", 0.8),
        ("x^(3/2)", 0.9),
    ]
    # every corpus expression with a derivative is smooth at 0.7
    safe += [(text, 0.7) for text in CORPUS if differentiate(parse_expr(text)) is not None]
    for text, x0 in safe:
        f = to_real_function(parse_expr(text), -0.5, 2.5)
        assert f.deriv is not None, text
        fd = central_diff(f, x0)
        assert abs(f.deriv(x0) - fd) <= 1e-7, text


@pytest.mark.parametrize("text, want", [
    ("1.0039*x^2 + 0.9891*sin(1.0162*x)", "1.0039*(2*x)+0.9891*(cos(1.0162*x)*1.0162)"),
    ("0.7012*exp(-1.2871*x) + 0.4033*x^3 + -0.2011*x^1",
     "0.7012*(exp(-1.2871*x)*-1.2871)+0.4033*(3*x^2)+-0.2011"),
    ("x^1", "1"),
    ("0*x", "0"),
    ("2^x", "2^x*ln(2)"),
    ("1/x", "-1/x^2"),
])
def test_symbolic_derivative_is_folded(text, want):
    # the product rule's zeros and ones leave no node behind
    assert to_string(differentiate(parse_expr(text))) == want


@pytest.mark.parametrize("text", ["x*(1/0)", "x*(10^400)", "x^(0^-1)", "(-8)^(1/3)*x"])
def test_folding_keeps_literal_errors_for_evaluate(text):
    # two literals fold only to a finite value, so building the derivative
    # never raises and the derivative fails where f does, with a DomainError
    tree = parse_expr(text)
    d = differentiate(tree)
    assert d is not None
    for x in (0.5, 2.0):
        with pytest.raises(DomainError):
            evaluate(tree, x)
        with pytest.raises(DomainError):
            evaluate(d, x)
    _assert_compiled_matches_evaluate(tree, (0.5, 2.0))


def test_negative_literal_prints_with_its_sign():
    # folding makes negative literals, which the parser never does
    tree = Bin("^", Num(-2.0), Var())
    assert to_string(tree) == "(-2)^x"
    assert evaluate(parse_expr(to_string(tree)), 3.0) == -8.0


def test_derivative_is_taken_with_its_function(monkeypatch):
    calls = []
    differentiate_, compile_ = expr.differentiate, expr._compile
    monkeypatch.setattr(expr, "differentiate", lambda node: calls.append(("d", node)) or differentiate_(node))
    monkeypatch.setattr(expr, "_compile", lambda node: calls.append(("c", node)) or compile_(node))
    tree = parse_expr("gamma(x+1)*x")
    assert to_real_function(tree, 0.5, 1.0).deriv is None
    assert calls == [("d", tree), ("c", tree)]  # no derivative to compile
    calls.clear()
    tree = parse_expr("x^2")
    f = to_real_function(tree, 0.0, 1.0)
    assert [kind for kind, _ in calls] == ["d", "c", "c"] and calls[:2] == [("d", tree), ("c", tree)]
    assert f.deriv(0.25) == 0.5 and f.deriv(0.75) == 1.5
    # the same text shares f's tree, function and derivative
    g = to_real_function(parse_expr("x^2"), 0.0, 2.0)
    assert (g.fn, g.deriv) == (f.fn, f.deriv) and len(calls) == 3

    def too_deep(node):
        raise RecursionError

    monkeypatch.setattr(expr, "differentiate", too_deep)
    with pytest.raises(ExprSyntaxError, match="nested too deeply"):
        to_real_function(parse_expr("x^3"), 0.0, 1.0)


def test_tower_too_deep_to_differentiate_is_a_syntax_error():
    # the parser and the compiler take this tower; the derivative overflows
    tree = parse_expr("^".join(["x"] * 400))
    assert expr._compile(tree)(1.0) == 1.0
    with pytest.raises(ExprSyntaxError, match="nested too deeply"):
        to_real_function(tree, 0.5, 1.0)


def test_derivative_of_power_chain_is_linear_in_depth():
    # 1^(1^(...^x)): each power asks whether its operands contain x, which
    # one bottom-up pass answers along with the derivatives
    tree = Var()
    for _ in range(600):
        tree = Bin("^", Num(1.0), tree)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        d = differentiate(tree)
        best = min(best, time.perf_counter() - start)
    assert evaluate(d, 0.5) == 0.0
    assert best <= 0.030


def test_gamma_blocks_symbolic_derivative():
    tree = parse_expr("gamma(x+1)")
    assert differentiate(tree) is None
    f = to_real_function(tree, 0.5, 3.0)
    assert f.deriv is None
    # rl_derivative falls back on fourth-order differences of f; the
    # reference integrates Gamma(s+1) digamma(s+1) in mpmath.  Measured worst
    # relative error: 7.1e-11 (second-order differences gave 1.7e-10)
    a = 0.5
    for alpha in (0.3, 0.5, 0.7):
        for t in (1.0, 2.0, 3.0):
            with mpmath.workdps(30):
                fp = lambda s: mpmath.gamma(s + 1) * mpmath.digamma(s + 1)
                slope_part = mpmath.quad(lambda s: (t - s) ** -alpha * fp(s), [a, t])
                want = float(
                    (mpmath.gamma(a + 1) * (t - a) ** -alpha + slope_part) / mpmath.gamma(1 - alpha)
                )
            got = rl_derivative(Side.Left, f, FracOrder(alpha), t)
            assert abs(got - want) <= 1e-10 * abs(want), (alpha, t)


def test_real_function_label_round_trips():
    f = to_real_function(parse_expr("x^2 + 1"), 0.0, 1.0)
    assert parse_expr(f.label) == parse_expr("x^2+1")


# --- compiled functions against the tree-walking reference -----------------

#: points where the random trees hit every domain error: 0 (division, ln,
#: gamma pole), negatives (sqrt, ln, fractional powers) and large magnitudes
#: (exp and power overflow)
COMPILED_XS = (0.0, -0.0, 0.5, 1.0, -1.0, -2.5, 3.0, 1e-300, 750.0)


def _outcome(call, x):
    """float.hex of the value, or the type and message of what was raised."""
    try:
        return float.hex(call(x))
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)


def _assert_compiled_matches_evaluate(tree, xs=COMPILED_XS):
    f = to_real_function(tree, 0.0, 1.0)
    d = differentiate(tree)
    assert (f.deriv is None) == (d is None)
    for x in xs:
        assert _outcome(f.fn, x) == _outcome(lambda t: evaluate(tree, t), x), (to_string(tree), x)
        if d is not None:
            assert _outcome(f.deriv, x) == _outcome(lambda t: evaluate(d, t), x), (to_string(tree), x)


_leaves = st.one_of(
    st.just(Var()),
    st.sampled_from([Const("pi"), Const("e")]),
    st.builds(Num, st.sampled_from([0.0, 1.0, 2.0, 0.5, 3.0, 1e-3, 1e308])),
    st.builds(Num, st.floats(-1e3, 1e3, allow_nan=False)),
)
_trees = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(Bin, st.sampled_from("+-*/^"), sub, sub),
        st.builds(Call, st.sampled_from(FUNCTIONS), sub),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_compiled_function_is_bit_identical_to_evaluate(tree):
    _assert_compiled_matches_evaluate(tree)


def test_compiled_corpus_is_bit_identical_to_evaluate():
    for text in CORPUS + ["1/x", "ln(x)", "sqrt(x-1)", "x^(1/3)", "gamma(x-1)", "exp(x)*x^300", "x/x",
                        "exp(1000*x)", "2^(5000*x)", "gamma(200*x)"]:
        _assert_compiled_matches_evaluate(parse_expr(text))


def test_deep_power_chain_compiles_without_nesting():
    # right-associative ^ makes a 300-deep tree; the compiled code stays flat
    tree = parse_expr("1^" * 300 + "x")
    _assert_compiled_matches_evaluate(tree, (0.7, -1.0))
    f = to_real_function(tree, 0.0, 1.0)
    assert f.fn(0.7) == 1.0 and f.deriv(0.7) == 0.0


def test_derivative_compiles_once_under_threads(monkeypatch):
    calls = []
    compile_ = expr._compile
    monkeypatch.setattr(expr, "_compile", lambda node: calls.append(node) or compile_(node))
    f = to_real_function(parse_expr("x^3 + sin(x)*exp(x)"), 0.0, 1.0)
    assert len(calls) == 2 and f.deriv is not None
    start = threading.Barrier(4)
    xs = [0.1 * i for i in range(11)]
    results = [None] * 4

    def worker(i):
        start.wait()
        results[i] = [f.deriv(x) for x in xs]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 2
    d = differentiate(parse_expr("x^3 + sin(x)*exp(x)"))
    assert all(r == [evaluate(d, x) for x in xs] for r in results)


def test_one_text_is_parsed_and_compiled_once():
    tree = parse_expr("x^2 + sin(x)")
    assert parse_expr("x^2 + sin(x)") is tree
    f, g = to_real_function(tree, 0.0, 1.0), to_real_function(tree, -1.0, 2.0)
    assert f is not g and (g.a, g.b) == (-1.0, 2.0)
    assert f.fn is g.fn and f.deriv is g.deriv and f.label == g.label == "x^2+sin(x)"


def test_memo_keys_trees_by_identity():
    # equal trees (0.0 == -0.0) that compute different values stay apart
    plus, minus = Bin("*", Num(0.0), Var()), Bin("*", Num(-0.0), Var())
    assert plus == minus
    assert math.copysign(1.0, to_real_function(plus, 0.0, 1.0).fn(1.0)) == 1.0
    assert math.copysign(1.0, to_real_function(minus, 0.0, 1.0).fn(1.0)) == -1.0


def test_errors_are_not_memoized(monkeypatch):
    for _ in range(2):
        with pytest.raises(ExprSyntaxError):
            parse_expr("x +")
    assert expr.parse_expr.cache_info().currsize == 0
    compile_ = expr._compile

    def too_deep_once(node):
        monkeypatch.setattr(expr, "_compile", compile_)
        raise RecursionError

    monkeypatch.setattr(expr, "_compile", too_deep_once)
    with pytest.raises(ExprSyntaxError, match="nested too deeply"):
        to_real_function(parse_expr("x*x"), 0.0, 1.0)
    assert to_real_function(parse_expr("x*x"), 0.0, 1.0).fn(3.0) == 9.0


def test_memos_stop_at_their_bound():
    bound = expr.parse_expr.cache_info().maxsize
    assert expr._built.cache_info().maxsize == bound
    for i in range(bound + 40):
        f = to_real_function(parse_expr(f"x + {i}"), 0.0, 1.0)
        assert f.fn(0.5) == 0.5 + i
    assert expr.parse_expr.cache_info().currsize == bound
    assert expr._built.cache_info().currsize == bound


def test_evicted_entries_leave_no_cyclic_garbage():
    bound = expr.parse_expr.cache_info().maxsize
    texts = [f"x^2 + {i}*sin(x)" for i in range(3 * bound)]
    for text in texts[:bound]:
        to_real_function(parse_expr(text), 0.0, 1.0).deriv(0.5)
    gc.collect()
    gc.disable()
    try:
        for text in texts[bound:]:  # each evicts one tree with its fn and taken derivative
            to_real_function(parse_expr(text), 0.0, 1.0).deriv(0.5)
    finally:
        unreachable = gc.collect()
        gc.enable()
    assert unreachable < 100


def test_first_call_on_a_new_text_under_threads():
    text = "exp(-x)*cos(3*x) + x^1.5"
    start = threading.Barrier(4)
    xs = [0.1 * i for i in range(11)]
    results = [None] * 4

    def worker(i):
        start.wait()
        f = to_real_function(parse_expr(text), 0.0, 1.0)
        results[i] = [(f.fn(x), f.deriv(x)) for x in xs]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    tree = parse_expr(text)
    d = differentiate(tree)
    assert all(r == [(evaluate(tree, x), evaluate(d, x)) for x in xs] for r in results)
