"""README's ``## Library`` example runs, and every value its comments state holds.

Each statement of the example is run in order. A comment on a statement's last
line, or on the comment-only lines right after it, describes that statement's
value, or the assigned value for an assignment. Two comment forms state a value:

- ``# <Python expression>`` or ``# <Python expression>: <words>``: the value
  equals the expression (evaluated with ``Fraction`` in scope);
- ``# <words>: v0, v1, ...``: the value, as a sequence, equals those rationals.

Any other comment is prose and states no value.
"""

import ast
import io
import re
import tokenize
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
_RATIONAL = re.compile(r"-?\d+(/\d+)?")


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def comments_by_line(source: str) -> dict[int, str]:
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start[0]: tok.string[1:].strip() for tok in tokens if tok.type == tokenize.COMMENT}


def stated_value(comment: str):
    """(kind, expected) for a comment that states a value, else None."""
    head, _, tail = comment.partition(": ")
    try:
        return "equals", eval(head, {"Fraction": Fraction})  # noqa: S307 - README text under test
    except (SyntaxError, NameError, TypeError):
        pass
    items = [item.strip() for item in tail.split(",")]
    if tail and all(_RATIONAL.fullmatch(item) for item in items):
        return "sequence", [Fraction(item) for item in items]
    return None


def run_and_check(source: str) -> int:
    comments = comments_by_line(source)
    statements = ast.parse(source).body
    namespace: dict = {}
    checked = 0
    for index, statement in enumerate(statements):
        if isinstance(statement, ast.Expr):
            value = eval(compile(ast.Expression(statement.value), "README", "eval"), namespace)
        else:
            exec(compile(ast.Module([statement], []), "README", "exec"), namespace)
            if not isinstance(statement, ast.Assign):
                continue
            value = namespace[statement.targets[0].id]
        stop = statements[index + 1].lineno if index + 1 < len(statements) else len(source.splitlines()) + 1
        for line in range(statement.end_lineno, stop):
            stated = comments.get(line) and stated_value(comments[line])
            if not stated:
                continue
            kind, expected = stated
            actual = list(value) if kind == "sequence" else value
            assert actual == expected, (line, comments[line], value)
            checked += 1
    return checked


def test_library_example_values_hold():
    # Ten comments state values today; a comment that stops parsing as one
    # lowers the count and fails here rather than going unchecked.
    assert run_and_check(library_block()) == 10


def test_a_wrong_stated_value_fails():
    source = library_block().replace("Fraction(568064, 11)", "Fraction(568065, 11)")
    try:
        run_and_check(source)
    except AssertionError as error:
        assert "568065" in str(error)
    else:
        raise AssertionError("a wrong value in the README went unnoticed")
