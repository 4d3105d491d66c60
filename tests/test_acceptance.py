"""Acceptance gate: every criterion of `pararadon.selftest`, the same
functions `pararadon selftest` runs, one printed pass/fail line per
criterion (visible under pytest -s)."""

from pararadon import selftest


def _gate(num, criterion):
    def test():
        ok, detail = criterion()
        print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
        assert ok, detail

    return test


for _num, _criterion in enumerate(selftest.CRITERIA, 1):
    globals()[f"test_{_criterion.__name__}"] = _gate(_num, _criterion)
