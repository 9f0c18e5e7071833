import pytest

from mlfrac import expr


@pytest.fixture(autouse=True)
def cold_expression_memos():
    """Every test parses and compiles its expressions afresh, so tests that
    count compiles or patch the compiler do not depend on the test order."""
    expr.parse_expr.cache_clear()
    expr._built.cache_clear()
