"""Acceptance gate: every criterion of `pararadon.selftest`, the same
functions `pararadon selftest` runs, one printed pass/fail line per
criterion (visible under pytest -s)."""

import re
from pathlib import Path

from pararadon import selftest


def _gate(num, criterion):
    def test():
        ok, detail = criterion()
        print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
        assert ok, detail

    return test


for _num, _criterion in enumerate(selftest.CRITERIA, 1):
    globals()[f"test_{_criterion.__name__}"] = _gate(_num, _criterion)


def test_readme_names_the_criteria():
    # README states the criterion count, and its criteria table cites each
    # criterion it sizes by number, so a deleted criterion fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (count,) = re.findall(r"The (\d+) acceptance criteria", readme)
    assert int(count) == len(selftest.CRITERIA)
    header = readme.split(f"The {count} acceptance criteria", 1)[1].split("\n| ", 1)[1]
    header = header.split("\n", 1)[0]
    cited = [int(n) for group in re.findall(r"\(([\d, ]+)\)", header) for n in group.split(",")]
    numbers = {int(fn.__name__.split("_")[1]) for fn in selftest.CRITERIA}
    assert cited and set(cited) <= numbers
