"""The README's library example and CLI examples run, and give the values and output they state."""
import re
import shlex
from fractions import Fraction
from pathlib import Path

from orbigenus import cli

README = Path(__file__).resolve().parent.parent / "README.md"

# a comment that opens with one of these states the value of the expression on its line
_STATED = re.compile(r"#\s*(\d+|Fraction\(-?\d+, \d+\)|True|False)(?=\s|$)")

# a comment that states the output of the command on its line: its last line, or all of it
_ENDS = re.compile(r'#\s*ends "(.*)"')
_PRINTS = re.compile(r"#\s*prints (\S+)")


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


def test_readme_cli_examples_run_and_give_their_stated_output(capsys):
    (block,) = re.findall(r"```sh\n(orbigenus .*?)```", README.read_text(), re.S)
    lines = block.splitlines()
    checked = []
    for line in lines:
        argv = shlex.split(line.partition("#")[0])
        assert argv[0] == "orbigenus", line
        code = cli.main(argv[1:])
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), line
        ends, prints = _ENDS.search(line), _PRINTS.search(line)
        if ends:  # the README writes the tab-separated line with spaces
            assert out.splitlines()[-1].split() == ends.group(1).split(), line
            checked.append(ends.group(1))
        if prints:
            assert out == prints.group(1) + "\n", line
            checked.append(prints.group(1))
    assert len(lines) == 10
    assert checked == ["total  17  88", "3/2"]
