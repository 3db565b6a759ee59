"""The digest ledger: tier-1 runs the cheap lines of ``scripts/output_digests.py --check``."""

import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# The cheapest line of each path, 2.0 s together against 9 s for all 23
# lines and 37 s for the pins (one run, 2 vCPU): the decay CLI (transforms and
# evolution at 2^17), the quadrature fallback's sups and argmax as hex
# (0.12 s), the trace CLI, the lemma tables, the Levin and Gauss quadrature of
# the fallback grid, and the pure Gauss rule (185k panels)
CHEAP_LINES = (
    "verify-decay/seed1/alpha0.4",
    "decay-sups/quadrature-fallback/2-samples",
    "trace-proof/seed0",
    "lemma-table/seed7",
    "evolve-quadrature/fallback-grid/7-points",
    "oscillatory-integral/pure-gauss",
)


@pytest.fixture(scope="module")
def digests():
    sys.path.insert(0, str(SCRIPTS))
    try:
        import output_digests
    finally:
        sys.path.remove(str(SCRIPTS))
    return output_digests


def test_ledger_holds_every_output_once(digests):
    lines = digests.LEDGER.read_text(encoding="utf-8").splitlines()
    names = [name for name, _ in digests.outputs()]
    assert lines[0].startswith("# Python ")
    assert [line.split(" ", 1)[0] for line in lines[1:1 + len(names)]] == names
    assert set(CHEAP_LINES) <= set(names)


def test_cheap_lines_match(digests):
    assert digests.check(CHEAP_LINES) == []


def test_a_moved_line_is_named(digests, monkeypatch, tmp_path):
    name = CHEAP_LINES[0]
    moved = [line if line.split(" ", 1)[0] != name else f"{name} {'0' * 64}"
             for line in digests.LEDGER.read_text(encoding="utf-8").splitlines()]
    monkeypatch.setattr(digests, "LEDGER", tmp_path / "ledger.txt")
    digests.LEDGER.write_text("\n".join(moved) + "\n", encoding="utf-8")
    (differ,) = digests.check([name])
    assert differ.startswith(f"ledger: {name} {'0' * 64}\n  here: {name} ")


def test_other_library_versions_fail_and_are_named(digests, monkeypatch):
    ledger = digests.LEDGER.read_text(encoding="utf-8").splitlines()[0]
    here = "# Python 3.0.0, numpy 0.0.1, scipy 0.0.1, 2 CPUs"
    monkeypatch.setattr(digests.measure_pins, "versions", lambda: here)
    (differ,) = digests.check(CHEAP_LINES)
    assert ledger[2:] in differ and "numpy 0.0.1" in differ
