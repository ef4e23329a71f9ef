"""README quick start: the first python block runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None, "README has no python block"
    exec(compile(block.group(1), str(README), "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("elected epoch ")
    assert float(printed[-1]) > 0
