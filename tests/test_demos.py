"""Smoke test: every demo script, and the README's library quickstart, runs
to completion against the current API."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library quickstart\n", 1)[1]
    code = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)
    exec(compile(code, "README.md quickstart", "exec"), {"__name__": "__main__"})
