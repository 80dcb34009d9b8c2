"""The README's library example runs, and gives the values its comments state."""
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# a comment that opens with one of these states the value of the expression on its line
_STATED = re.compile(r"#\s*(\d+|Fraction\(-?\d+, \d+\)|True|False)(?=\s|$)")


def test_readme_example_gives_its_stated_values():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(block, namespace)
    checked = []
    for line in block.splitlines():
        m = _STATED.search(line)
        if m:
            value = eval(m.group(1), {"Fraction": Fraction})
            assert eval(line[: m.start()], namespace) == value, line
            checked.append(value)
    assert checked == [88, Fraction(2, 1), Fraction(2, 3), True]
