"""The stdlib coverage tool reports the code the tests ran.

``tools/measure_coverage.py`` compares the lines a run executed with
each target file's executable lines.  Those must be read before the run
starts: a file edited while the tests run would otherwise be reported
against line numbers the run never saw.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools import measure_coverage  # noqa: E402

MODULE = '''\
def f(x):
    if x > 0:
        return x
    return -x


def g():
    return f(2)
'''


def test_report_ignores_an_edit_made_during_the_run(tmp_path, monkeypatch,
                                                    capsys):
    target = tmp_path / "pkg" / "mod.py"
    target.parent.mkdir()
    monkeypatch.setattr(measure_coverage, "REPO", tmp_path)
    monkeypatch.setattr(measure_coverage, "TARGETS", ("pkg",))
    edit = []

    def run_pytest(argv):
        # the source changes under the run
        if edit:
            target.write_text("\n" + target.read_text())
        return 0

    def trace(argv, prefixes, covered):
        # every executable line of the file as the run found it ran,
        # except `return -x`
        lines = measure_coverage.executable_lines(target)
        skipped = target.read_text().splitlines().index("    return -x") + 1
        covered[str(target)] = lines - {skipped}
        return measure_coverage._run_pytest(argv)

    monkeypatch.setattr(measure_coverage, "_run_pytest", run_pytest)
    monkeypatch.setattr(measure_coverage, "_trace_monitoring", trace)
    monkeypatch.setattr(measure_coverage, "_trace_settrace", trace)

    reports = []
    for edited in (False, True):
        target.write_text(MODULE)
        edit[:] = [True] if edited else []
        assert measure_coverage.main([]) == 0
        reports.append(capsys.readouterr().out)
    assert target.read_text() == "\n" + MODULE
    assert reports[0] == reports[1]
    assert "pkg/mod.py" in reports[0] and "TOTAL" in reports[0]
    assert "83.3%" in reports[0]      # 5 of 6 lines: `return -x` never ran
