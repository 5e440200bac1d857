"""Documentation must stay executable: README/docs code blocks and links.

Runs the same checker as the CI docs job (``tools/check_docs.py``) in
process — every fenced python block in README.md and docs/*.md executes
without raising, every relative link target exists, and README's
performance table holds the numbers of the committed ledger run.
"""

import importlib.util
import json
import sys
from pathlib import Path


def _load_checker():
    path = Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"
    spec = importlib.util.spec_from_file_location("check_docs", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules["check_docs"] = mod
    spec.loader.exec_module(mod)
    return mod


def test_docs_code_blocks_and_links_pass():
    checker = _load_checker()
    assert checker.main() == 0


def test_edited_performance_number_fails_the_check(tmp_path, monkeypatch):
    """README's ledger table is BENCH_LEDGER.json, not prose: one digit
    changed in one cell and the docs check exits 1, naming the cell."""
    checker = _load_checker()
    ledger = json.loads(checker.LEDGER.read_text())
    value = ledger["workloads"]["sweep_kfoe_si64"]["metrics"]["ops_per_s"]
    printed = f"| {value['value']:.3f} |"
    text = checker.README.read_text()
    assert text.count(printed) == 1
    edited = tmp_path / "README.md"
    edited.write_text(text.replace(
        printed, f"| {value['value'] + 0.001:.3f} |"))
    failures = checker.check_perf_table(edited, checker.LEDGER)
    assert len(failures) == 1
    assert "ops_per_s @ sweep_kfoe_si64" in failures[0]
    # the same through the entry point (code blocks and links skipped)
    monkeypatch.setattr(checker, "DOC_FILES", [])
    monkeypatch.setattr(checker, "README", edited)
    assert checker.main() == 1
    # a workload without a row and a run the section does not name fail too
    pruned = tmp_path / "pruned.md"
    pruned.write_text("\n".join(
        line for line in text.splitlines()
        if not line.startswith("| `traj_io_si512`")
    ).replace(ledger["git"]["sha"][:7], "0000000"))
    git, row = checker.check_perf_table(pruned, checker.LEDGER)
    assert "git sha" in git and row.endswith("workload traj_io_si512")


def test_stale_signature_heading_fails_the_check(tmp_path):
    """An api.md heading is held to ``inspect.signature``: a parameter
    the constructor lost, or a name its section's module lacks, fails."""
    checker = _load_checker()
    assert checker.check_api_signatures(checker.API) == []
    stale = tmp_path / "api.md"
    stale.write_text(
        "## `repro.md` — dynamics\n\n"
        "### `MDDriver(atoms, calc, integrator, observers=(), "
        "blowup_temperature=1e6)`\n\n"
        "### `VelocityVerlet(dt, neighbor_method=\"auto\")`\n\n"
        "### `BerendsenBarostat(dt)`\n")
    lost, missing = checker.check_api_signatures(stale)
    assert "VelocityVerlet(dt, neighbor_method)" in lost
    assert "BerendsenBarostat" in missing and "repro.md" in missing


def test_docs_tree_exists():
    root = Path(__file__).resolve().parent.parent
    for name in ("README.md", "docs/architecture.md", "docs/tutorial_md.md",
                 "docs/api.md"):
        assert (root / name).exists(), name
