"""Tier-1 tests for the reprolint static-analysis suite.

Three layers:

* per-rule fixture triples — a violating module, a clean module, and
  the violating module with an inline suppression — run against a
  temporary fixture tree (``RunConfig(root=tmp_path)``), so each rule's
  detection logic is pinned independently of the live codebase;
* engine behaviour — suppressions, baseline workflow (including stale
  entries failing the CLI), output formats, counts artifact;
* the repository pin — the landed tree must be reprolint-clean, and
  deliberately re-introducing a canary bug (an un-invalidated cache
  attribute, an off-catalog metric) must fail the CLI.  This is the
  test that makes the contracts *enforced*, not aspirational.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools import check_ratchet  # noqa: E402
from tools.check_ratchet import main as ratchet_main  # noqa: E402
from tools.reprolint.__main__ import main as reprolint_main  # noqa: E402
from tools.reprolint.catalog import matches_convention, parse_catalog  # noqa: E402
from tools.reprolint.engine import (  # noqa: E402
    RunConfig,
    counts_snapshot,
    load_baseline,
    run_paths,
    split_baselined,
    write_baseline,
)
from tools.reprolint.rules import all_rules, rule_ids  # noqa: E402
from tools.reprolint.rules.unreferenced_public_name import (  # noqa: E402
    UnreferencedPublicNameRule,
)


def lint_tree(tmp_path: Path, files: dict[str, str],
              catalog: frozenset[str] | None = None,
              rules: list | None = None) -> list:
    """Write *files* under *tmp_path* and run *rules* over the tree.

    By default every rule that judges one module on its own: the
    unreferenced-public-name rule judges a name against the whole
    repository, which a one-module fixture tree does not have, so it
    runs only where a test asks for it."""
    for rel, source in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(source)
    if rules is None:
        rules = [r for r in all_rules()
                 if not isinstance(r, UnreferencedPublicNameRule)]
    config = RunConfig(root=tmp_path, catalog_names=catalog)
    tops = dict.fromkeys(rel.split("/")[0] for rel in files)
    return run_paths([tmp_path / top for top in tops],
                     rules=rules, config=config)


def rules_hit(findings) -> set[str]:
    return {f.rule for f in findings}


# -- rule fixtures: violating / clean / suppressed --------------------------

CACHE_VIOLATION = '''
class WindowCalculator:
    def __init__(self):
        self._window_cache = None
        self._cached_mu = None

    def compute(self):
        self._window_cache = object()

    def reset(self):
        self._cached_mu = None
'''

CACHE_CLEAN = '''
class WindowCalculator:
    def __init__(self):
        self._window_cache = None
        self._cached_mu = None

    def reset(self):
        self._drop_caches()

    def _drop_caches(self):
        self._window_cache = None
        self._cached_mu = None
'''

CACHE_NO_RESET = '''
class PatternBuilder:
    def __init__(self):
        self._pattern_cache = {}
'''


class TestCacheInvalidationRule:
    def test_uncleared_cache_attr_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"src/calc.py": CACHE_VIOLATION})
        assert [f.rule for f in found] == ["cache-invalidation"]
        assert "_window_cache" in found[0].message
        assert "_cached_mu" not in found[0].message

    def test_clean_via_helper_call(self, tmp_path):
        found = lint_tree(tmp_path, {"src/calc.py": CACHE_CLEAN})
        assert found == []

    def test_missing_reset_method_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"src/build.py": CACHE_NO_RESET})
        assert [f.rule for f in found] == ["cache-invalidation"]
        assert "no reset/invalidate method" in found[0].message

    def test_inline_suppression(self, tmp_path):
        # findings anchor at the method that first assigns the attribute
        src = CACHE_VIOLATION.replace(
            "def __init__(self):",
            "def __init__(self):  # reprolint: disable=cache-invalidation")
        assert lint_tree(tmp_path, {"src/calc.py": src}) == []

    def test_outside_src_not_in_scope(self, tmp_path):
        found = lint_tree(tmp_path, {"benchmarks/calc.py": CACHE_VIOLATION})
        assert found == []


ENVELOPE_VIOLATION = '''
def handle(req):
    return {"ok": True, "energy": -4.2}
'''

ENVELOPE_CLEAN = '''
from repro.service.protocol import Result

def handle(req):
    return Result.success({"energy": -4.2})

def counts():
    # an "ok" *count* is data, not an envelope
    return {"ok": 3, "failed": 1}
'''

SCENARIO_DICT_RUN = '''
class EOSScenario:
    def run(self, client, structure, params):
        return {"e0": -4.2}
'''


class TestResultEnvelopeRule:
    def test_ad_hoc_ok_dict_flagged(self, tmp_path):
        found = lint_tree(
            tmp_path, {"src/repro/service/ops.py": ENVELOPE_VIOLATION})
        assert [f.rule for f in found] == ["result-envelope"]

    def test_result_constructor_and_counts_clean(self, tmp_path):
        found = lint_tree(
            tmp_path, {"src/repro/service/ops.py": ENVELOPE_CLEAN})
        assert found == []

    def test_scenario_run_returning_dict_flagged(self, tmp_path):
        found = lint_tree(
            tmp_path, {"src/repro/scenarios/eos.py": SCENARIO_DICT_RUN})
        assert [f.rule for f in found] == ["result-envelope"]
        assert "run() returns a bare dict" in found[0].message

    def test_protocol_module_exempt(self, tmp_path):
        found = lint_tree(
            tmp_path, {"src/repro/service/protocol.py": ENVELOPE_VIOLATION})
        assert found == []

    def test_file_wide_suppression(self, tmp_path):
        src = "# reprolint: disable-file=result-envelope\n" + ENVELOPE_VIOLATION
        found = lint_tree(tmp_path, {"src/repro/service/ops.py": src})
        assert found == []


TELEMETRY_FSTRING = '''
from repro import obs

def record(kind):
    obs.counter_inc(f"service.{kind}_evals")
'''

TELEMETRY_OFF_CATALOG = '''
from repro import obs

def record():
    obs.counter_inc("service.surprise_total")
'''

TELEMETRY_BAD_SHAPE = '''
from repro import obs

def record():
    obs.counter_inc("NotAValidName")
'''

TELEMETRY_CLEAN = '''
from repro import obs

def record(warm):
    if warm:
        obs.counter_inc("service.warm_evals")
    else:
        obs.counter_inc("service.cold_evals")
    with obs.span("service.request"):
        pass
'''

TELEMETRY_SCOPE = '''
class Service:
    def record(self, warm):
        self.counts.counter_inc("service.warm_evals")
        self.counts.observe("service.request", 1.0)
        self.counts.counter_inc("service.surprise_total")

    def stats(self):
        count = self.counts.count
        return {"warm": self.counts.count("service.warm_evalz"),
                "cold": count("service.cold_evalz"),
                "ok": count("service.cold_evals")}
'''

FIXTURE_CATALOG = frozenset(
    {"service.warm_evals", "service.cold_evals", "service.request"})


class TestTelemetryCatalogRule:
    def test_fstring_name_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"src/repro/a.py": TELEMETRY_FSTRING},
                          catalog=FIXTURE_CATALOG)
        assert [f.rule for f in found] == ["telemetry-catalog"]
        assert "dynamic" in found[0].message

    def test_off_catalog_name_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"src/repro/a.py": TELEMETRY_OFF_CATALOG},
                          catalog=FIXTURE_CATALOG)
        assert [f.rule for f in found] == ["telemetry-catalog"]
        assert "not in the" in found[0].message

    def test_malformed_name_flagged_even_without_catalog(self, tmp_path):
        found = lint_tree(tmp_path, {"src/repro/a.py": TELEMETRY_BAD_SHAPE},
                          catalog=frozenset())
        assert [f.rule for f in found] == ["telemetry-catalog"]
        assert "convention" in found[0].message

    def test_cataloged_literals_clean(self, tmp_path):
        found = lint_tree(tmp_path, {"src/repro/a.py": TELEMETRY_CLEAN},
                          catalog=FIXTURE_CATALOG)
        assert found == []

    def test_suppressed(self, tmp_path):
        src = TELEMETRY_FSTRING.replace(
            'obs.counter_inc(f"service.{kind}_evals")',
            'obs.counter_inc(f"service.{kind}_evals")'
            '  # reprolint: disable=telemetry-catalog')
        found = lint_tree(tmp_path, {"src/repro/a.py": src},
                          catalog=FIXTURE_CATALOG)
        assert found == []

    def test_scope_writes_and_reads_checked(self, tmp_path):
        """``<owner>.counts.*`` names are catalog-checked too — including
        the ``count`` reads behind a report, directly or via a local
        alias (a misspelt read silently projects 0)."""
        found = lint_tree(tmp_path, {"src/repro/a.py": TELEMETRY_SCOPE},
                          catalog=FIXTURE_CATALOG)
        assert [f.rule for f in found] == ["telemetry-catalog"] * 3
        assert [f.line for f in found] == [6, 10, 11]
        assert "service.warm_evalz" in found[1].message

    def test_convention(self):
        assert matches_convention("foe.fused")
        assert matches_convention("neighbors.rebuild.cell-unmappable")
        assert not matches_convention("single")
        assert not matches_convention("Has.Capitals")

    def test_live_catalog_parses_known_names(self):
        catalog = parse_catalog(REPO_ROOT)
        assert "foe.fused" in catalog
        assert "service.warm_evals" in catalog
        assert "campaign.cell_failures" in catalog


IMPORT_TOP_LEVEL = '''
import ase

def bridge():
    return ase
'''

IMPORT_GUARDED = '''
try:
    import numba
except ImportError:
    numba = None

from typing import TYPE_CHECKING
if TYPE_CHECKING:
    import ase

def use():
    import cupy
    return cupy
'''


class TestImportGuardRule:
    def test_top_level_optional_import_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"src/repro/bridge.py": IMPORT_TOP_LEVEL})
        assert [f.rule for f in found] == ["import-guard"]
        assert "ase" in found[0].message

    def test_guarded_forms_clean(self, tmp_path):
        found = lint_tree(tmp_path, {"src/repro/bridge.py": IMPORT_GUARDED})
        assert found == []

    def test_suppressed(self, tmp_path):
        src = IMPORT_TOP_LEVEL.replace(
            "import ase", "import ase  # reprolint: disable=import-guard")
        assert lint_tree(tmp_path, {"src/repro/bridge.py": src}) == []


ANALYSIS_TOP_LEVEL = '''
import networkx as nx
from scipy.optimize import curve_fit
from scipy import optimize
import scipy.optimize
import scipy.linalg
from scipy import sparse

def census(g):
    return nx.cycle_basis(g)
'''

ANALYSIS_AT_USE_SITES = '''
from typing import TYPE_CHECKING
if TYPE_CHECKING:
    import networkx as nx

try:
    import networkx
except ImportError:
    networkx = None

import scipy.sparse
from scipy.special import expit

def fit(v, e):
    from scipy.optimize import curve_fit
    return curve_fit

def census(g) -> "nx.Graph":
    import networkx as nx
    return nx.cycle_basis(g)
'''


class TestOptionalImportRule:
    def test_module_level_analysis_imports_flagged(self, tmp_path):
        found = lint_tree(tmp_path,
                          {"src/repro/analysis/x.py": ANALYSIS_TOP_LEVEL})
        assert [(f.rule, f.line) for f in found] == [
            ("optional-import", line) for line in (2, 3, 4, 5)]
        assert "networkx" in found[0].message
        assert all("scipy.optimize" in f.message for f in found[1:])

    def test_use_site_and_guarded_forms_clean(self, tmp_path):
        found = lint_tree(tmp_path,
                          {"src/repro/analysis/x.py": ANALYSIS_AT_USE_SITES})
        assert found == []

    def test_outside_src_repro_not_in_scope(self, tmp_path):
        assert lint_tree(tmp_path,
                         {"tools/x.py": ANALYSIS_TOP_LEVEL}) == []


BARE_EXCEPT = '''
def risky():
    try:
        return 1
    except:
        return None
'''

BUILTIN_RAISE = '''
def op(req):
    raise ValueError("bad request")
'''

DISCIPLINED = '''
from repro.errors import ProtocolError

def op(req):
    try:
        return req["op"]
    except KeyError as exc:
        raise ProtocolError("missing op") from exc
'''


class TestErrorDisciplineRule:
    def test_bare_except_flagged_anywhere(self, tmp_path):
        found = lint_tree(tmp_path, {"tools/helper.py": BARE_EXCEPT})
        assert [f.rule for f in found] == ["error-discipline"]

    def test_builtin_raise_in_service_flagged(self, tmp_path):
        found = lint_tree(
            tmp_path, {"src/repro/service/ops.py": BUILTIN_RAISE})
        assert [f.rule for f in found] == ["error-discipline"]

    def test_builtin_raise_outside_service_allowed(self, tmp_path):
        found = lint_tree(tmp_path, {"src/repro/tb/model.py": BUILTIN_RAISE})
        assert found == []

    def test_repro_error_clean(self, tmp_path):
        found = lint_tree(
            tmp_path, {"src/repro/service/ops.py": DISCIPLINED})
        assert found == []

    def test_suppressed(self, tmp_path):
        src = BUILTIN_RAISE.replace(
            'raise ValueError("bad request")',
            'raise ValueError("bad request")'
            '  # reprolint: disable=error-discipline')
        found = lint_tree(tmp_path, {"src/repro/service/ops.py": src})
        assert found == []


CLOCK_VIOLATION = '''
import time

def stamp():
    return time.time(), time.perf_counter()
'''

CLOCK_CLEAN = '''
import time
from repro.utils.timing import tick, wall_now

def stamp():
    return wall_now(), tick()

def deadline():
    return time.monotonic() + 5.0
'''


class TestClockDisciplineRule:
    def test_raw_clocks_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"src/repro/md/x.py": CLOCK_VIOLATION})
        assert rules_hit(found) == {"clock-discipline"}
        assert len(found) == 2

    def test_from_import_flagged(self, tmp_path):
        src = "from time import perf_counter\n"
        found = lint_tree(tmp_path, {"src/repro/md/x.py": src})
        assert [f.rule for f in found] == ["clock-discipline"]

    def test_sanctioned_clocks_clean(self, tmp_path):
        found = lint_tree(tmp_path, {"src/repro/md/x.py": CLOCK_CLEAN})
        assert found == []

    def test_obs_and_timing_exempt(self, tmp_path):
        found = lint_tree(tmp_path, {
            "src/repro/obs/spans.py": CLOCK_VIOLATION,
            "src/repro/utils/timing.py": CLOCK_VIOLATION,
        })
        assert found == []

    def test_suppressed(self, tmp_path):
        src = CLOCK_VIOLATION.replace(
            "return time.time(), time.perf_counter()",
            "return time.time(), time.perf_counter()"
            "  # reprolint: disable=clock-discipline")
        assert lint_tree(tmp_path, {"src/repro/md/x.py": src}) == []


SHARED_STATE_VIOLATION = '''
PENDING = {}
RESULTS = []
'''

SHARED_STATE_LOCKED = '''
import threading

_LOCK = threading.Lock()
PENDING = {}
'''

SHARED_STATE_FROZEN = '''
from types import MappingProxyType

PRESETS = MappingProxyType({"a": 1})
NAMES = ("x", "y")
__all__ = ["PRESETS", "NAMES"]
'''


class TestSharedStateRule:
    def test_unguarded_containers_flagged(self, tmp_path):
        found = lint_tree(
            tmp_path, {"src/repro/service/queue.py": SHARED_STATE_VIOLATION})
        assert rules_hit(found) == {"shared-state"}
        assert len(found) == 2

    def test_lock_guarded_clean(self, tmp_path):
        found = lint_tree(
            tmp_path, {"src/repro/parallel/queue.py": SHARED_STATE_LOCKED})
        assert found == []

    def test_frozen_and_dunder_clean(self, tmp_path):
        found = lint_tree(
            tmp_path, {"src/repro/service/cfg.py": SHARED_STATE_FROZEN})
        assert found == []

    def test_outside_concurrent_tiers_allowed(self, tmp_path):
        found = lint_tree(
            tmp_path, {"src/repro/tb/tables.py": SHARED_STATE_VIOLATION})
        assert found == []

    def test_suppressed(self, tmp_path):
        src = SHARED_STATE_VIOLATION.replace(
            "PENDING = {}",
            "PENDING = {}  # reprolint: disable=shared-state").replace(
            "RESULTS = []",
            "RESULTS = []  # reprolint: disable=shared-state")
        found = lint_tree(tmp_path, {"src/repro/service/queue.py": src})
        assert found == []


SPINE_VIOLATION = '''
class PairPotential:
    def compute(self, atoms, forces=True):
        return {"energy": 0.0}

    def get_forces(self, atoms):
        return self.compute(atoms)["forces"]
'''

SPINE_TWIN_TAIL = '''
from repro.state import CalculatorBase

class PairPotential(CalculatorBase):
    def compute(self, atoms, forces=True):
        return self._store({"energy": 0.0})

    def _attach_stress(self, res, atoms):
        res["stress"] = res["virial"] / atoms.cell.volume
'''

SPINE_CLEAN = '''
import repro.state
from somewhere import Calculator

class PairPotential(repro.state.CalculatorBase):
    def compute(self, atoms, forces=True):
        return self._store({"energy": 0.0})

    def get_charges(self, atoms):
        return self.compute(atoms, forces=False)["charges"]

class Bridge(Calculator):
    def calculate(self, atoms=None, properties=("energy",)):
        pass

    def get_forces(self, atoms):
        return None

class RankModel:
    def compute(self, rank, flops):
        pass
'''


class TestCalculatorSpineRule:
    def test_compute_off_the_spine_flagged(self, tmp_path):
        found = lint_tree(tmp_path,
                          {"src/repro/classical/pair.py": SPINE_VIOLATION})
        assert [f.rule for f in found] == ["calculator-spine"] * 2
        assert "does not subclass CalculatorBase" in found[0].message
        assert "re-implements get_forces" in found[1].message

    def test_local_stress_tail_flagged(self, tmp_path):
        found = lint_tree(tmp_path,
                          {"src/repro/classical/pair.py": SPINE_TWIN_TAIL})
        assert [f.rule for f in found] == ["calculator-spine"]
        assert "_attach_stress" in found[0].message

    def test_subclass_adapter_and_unrelated_compute_clean(self, tmp_path):
        found = lint_tree(tmp_path,
                          {"src/repro/classical/pair.py": SPINE_CLEAN})
        assert found == []

    def test_outside_src_not_in_scope(self, tmp_path):
        found = lint_tree(tmp_path, {"benchmarks/pair.py": SPINE_VIOLATION})
        assert found == []

    def test_suppressed(self, tmp_path):
        src = SPINE_TWIN_TAIL.replace(
            "def _attach_stress(self, res, atoms):",
            "def _attach_stress(self, res, atoms):"
            "  # reprolint: disable=calculator-spine")
        found = lint_tree(tmp_path, {"src/repro/classical/pair.py": src})
        assert found == []


BOOKKEEPER_TWIN = '''
from repro import obs

class Calc:
    def __init__(self):
        self._counters = {"foe_fused": 0}
        self.n_builds = 0

    def solve(self, fused):
        if fused:
            self._counters["foe_fused"] += 1
            obs.counter_inc("foe.fused")
        obs.counter_inc("neighbors.rebuild.init")
        self.n_builds += 1
'''

BOOKKEEPER_CLEAN = '''
from repro import obs

_REBUILD_COUNTERS = {"init": "neighbors.rebuild.init"}

class Calc:
    def __init__(self):
        self.counts = obs.MetricsScope()
        self.n_atoms = 0

    def solve(self, atoms):
        self.counts.counter_inc("foe.fused")
        self.n_atoms = len(atoms)
        self._generation += 1

    def state_report(self):
        return {"foe": {"fused": self.counts.count("foe.fused")}}
'''


class TestSingleBookkeeperRule:
    def test_twin_tally_and_counter_dict_flagged(self, tmp_path):
        found = lint_tree(tmp_path, {"src/repro/calc.py": BOOKKEEPER_TWIN},
                          catalog=frozenset())
        assert [f.rule for f in found] == ["single-bookkeeper"] * 3
        assert "_counters is an ad-hoc counter dict" in found[0].message
        assert "self._counters is incremented next to" in found[1].message
        assert "self.n_builds is incremented next to" in found[2].message

    def test_scope_owner_clean(self, tmp_path):
        found = lint_tree(tmp_path, {"src/repro/calc.py": BOOKKEEPER_CLEAN},
                          catalog=frozenset())
        assert found == []

    def test_obs_package_and_non_src_out_of_scope(self, tmp_path):
        found = lint_tree(tmp_path,
                          {"src/repro/obs/metrics.py": BOOKKEEPER_TWIN,
                           "benchmarks/calc.py": BOOKKEEPER_TWIN},
                          catalog=frozenset())
        assert found == []

    def test_suppressed(self, tmp_path):
        src = BOOKKEEPER_TWIN.replace(
            "self.n_builds += 1",
            "self.n_builds += 1  # reprolint: disable=single-bookkeeper")
        found = lint_tree(tmp_path, {"src/repro/calc.py": src},
                          catalog=frozenset())
        assert [f.line for f in found] == [6, 11]


FRAME_SINK_TWINS = '''
from dataclasses import dataclass
from repro.geometry.xyz import write_xyz
from repro.trajio.writer import TrajectoryWriter
from repro.trajio import reader

@dataclass
class SampleFrame:
    step: int
    time_fs: float

class Dump:
    def __init__(self, path):
        self.path = path
        self.writer = TrajectoryWriter(path) if path.endswith(".ptrj") \\
            else None

    def __call__(self, step, atoms, data):
        write_xyz(self.path, atoms, append=step > 0,
                  comment=f"step={step} time_fs={data['time_fs']:.3f}")

def load(path):
    return list(reader.TrajectoryReader(path))
'''

FRAME_SINK_CLEAN = '''
from dataclasses import dataclass
from repro.geometry.xyz import frame_comment, write_xyz
from repro.trajio import iter_frames, open_writer

@dataclass
class FrameWindow:
    start: int
    stop: int

class KeyFrame:
    """Not a dataclass: the rule is about frame *records*."""

def dump(path, atoms, data):
    write_xyz(path, atoms)
    with open_writer(path) as writer:
        writer.write(atoms, step=data["step"], time_fs=data["time_fs"])
    print(f"wrote step {data['step']} ({len(list(iter_frames(path)))})")
    return frame_comment(**data)
'''


class TestSingleFrameSinkRule:
    def test_codec_twins_flagged(self, tmp_path):
        found = lint_tree(tmp_path,
                          {"src/repro/md/dump.py": FRAME_SINK_TWINS})
        assert [f.rule for f in found] == ["single-frame-sink"] * 5
        messages = " | ".join(f.message for f in found)
        assert "dataclass SampleFrame" in messages
        assert "TrajectoryWriter(...) constructed" in messages
        assert "TrajectoryReader(...) constructed" in messages
        assert "write_xyz(..., append=...)" in messages
        assert "hand-formatted step=/time_fs=" in messages

    def test_sink_and_source_clients_clean(self, tmp_path):
        found = lint_tree(tmp_path,
                          {"src/repro/md/dump.py": FRAME_SINK_CLEAN})
        assert found == []

    def test_codec_owners_and_non_package_out_of_scope(self, tmp_path):
        found = lint_tree(tmp_path, {
            "src/repro/trajio/stream.py": FRAME_SINK_TWINS,
            "src/repro/geometry/xyz.py": FRAME_SINK_TWINS,
            "benchmarks/bench_io.py": FRAME_SINK_TWINS})
        assert found == []

    def test_suppressed(self, tmp_path):
        src = FRAME_SINK_TWINS.replace(
            "class SampleFrame:",
            "class SampleFrame:  # reprolint: disable=single-frame-sink")
        found = lint_tree(tmp_path, {"src/repro/md/dump.py": src})
        assert len(found) == 4
        assert not any("SampleFrame" in f.message for f in found)


UNREFERENCED_MODULE = '''
from repro.scenarios.base import register_scenario


def used_by_a_tool():
    return 1


def taught_by_the_docs():
    return 2


def dead_helper(n):
    """Only its tests call it; it calls itself."""
    return dead_helper(n - 1) if n else 0


class DeadModel:
    def clone(self):
        return DeadModel()


@register_scenario
class FoundByRegistry:
    name = "registered"


def _private_helper():
    pass
'''


class TestUnreferencedPublicNameRule:
    def lint(self, tmp_path, files):
        return lint_tree(tmp_path, files,
                         rules=[UnreferencedPublicNameRule()])

    def test_only_names_without_a_reader_are_flagged(self, tmp_path):
        found = self.lint(tmp_path, {
            "src/repro/helpers.py": UNREFERENCED_MODULE,
            "src/repro/__init__.py": (
                "from repro.helpers import dead_helper, DeadModel\n"
                "__all__ = ['dead_helper', 'DeadModel']\n"),
            "tools/report.py": (
                "from repro.helpers import used_by_a_tool\n"
                "print(used_by_a_tool())\n"),
            "docs/api.md": "Call `taught_by_the_docs()` for the answer.\n",
            "tests/test_helpers.py": (
                "from repro.helpers import dead_helper, DeadModel\n"
                "def test_it():\n    assert dead_helper(2) == 0\n"),
        })
        assert [f.rule for f in found] == ["unreferenced-public-name"] * 2
        assert "function dead_helper" in found[0].message
        assert "class DeadModel" in found[1].message

    def test_outside_src_repro_not_in_scope(self, tmp_path):
        assert self.lint(tmp_path,
                         {"tools/helpers.py": UNREFERENCED_MODULE}) == []

    def test_suppressed(self, tmp_path):
        src = UNREFERENCED_MODULE.replace(
            "def dead_helper(n):",
            "def dead_helper(n):  # reprolint: disable=unreferenced-public-name")
        found = self.lint(tmp_path, {"src/repro/helpers.py": src,
                                     "README.md": "used_by_a_tool "
                                                  "taught_by_the_docs\n"})
        assert [f.message.split()[2] for f in found] == ["DeadModel"]

    def test_index_is_built_once_per_run(self, tmp_path, monkeypatch):
        from tools.reprolint.rules import unreferenced_public_name as mod

        calls = []
        real = mod.build_word_index
        monkeypatch.setattr(mod, "build_word_index",
                            lambda root: calls.append(root) or real(root))
        self.lint(tmp_path, {"src/repro/a.py": "def one():\n    pass\n",
                             "src/repro/b.py": "def two():\n    pass\n"})
        assert len(calls) == 1


# -- engine behaviour -------------------------------------------------------

class TestEngine:
    def test_parse_error_is_a_finding(self, tmp_path):
        found = lint_tree(tmp_path, {"src/broken.py": "def f(:\n"})
        assert [f.rule for f in found] == ["parse-error"]

    def test_github_format(self, tmp_path):
        found = lint_tree(tmp_path, {"src/calc.py": CACHE_VIOLATION})
        line = found[0].format("github")
        assert line.startswith("::error file=src/calc.py,line=")
        assert "title=reprolint(cache-invalidation)" in line

    def test_baseline_roundtrip_and_split(self, tmp_path):
        found = lint_tree(tmp_path, {"src/calc.py": CACHE_VIOLATION})
        bl_path = tmp_path / "baseline.json"
        write_baseline(bl_path, found)
        entries = json.loads(bl_path.read_text())["entries"]
        assert len(entries) == 1
        # load_baseline refuses undocumented reasons only when empty
        entries[0]["reason"] = "grandfathered for the test"
        bl_path.write_text(json.dumps({"entries": entries}))
        baseline = load_baseline(bl_path)
        new, old = split_baselined(found, baseline)
        assert new == [] and len(old) == 1

    def test_baseline_requires_reason(self, tmp_path):
        bl_path = tmp_path / "baseline.json"
        bl_path.write_text(json.dumps({"entries": [
            {"rule": "shared-state", "path": "x.py", "message": "m",
             "reason": ""}]}))
        with pytest.raises(ValueError, match="reason"):
            load_baseline(bl_path)

    def test_counts_snapshot_shape(self, tmp_path):
        found = lint_tree(tmp_path, {"src/calc.py": CACHE_VIOLATION})
        snap = counts_snapshot(found, [])
        assert snap["counters"] == {
            "reprolint.findings.cache-invalidation": 1.0}
        assert snap["gauges"]["reprolint.findings_total"] == 1.0
        assert snap["histograms"] == {}

    def test_rule_registry_is_complete(self):
        ids = rule_ids()
        assert len(ids) == len(set(ids))
        assert set(ids) == {
            "cache-invalidation", "result-envelope", "telemetry-catalog",
            "import-guard", "optional-import", "error-discipline",
            "clock-discipline",
            "shared-state", "calculator-spine", "single-bookkeeper",
            "single-frame-sink", "unreferenced-public-name"}
        for rule in all_rules():
            assert rule.id and rule.hint and rule.description


# -- the CLI and the repository pin -----------------------------------------

def write_fixture(tmp_path: Path, files: dict[str, str]) -> None:
    for rel, source in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(source)


class TestCLI:
    def test_exit_one_on_findings(self, tmp_path, capsys):
        write_fixture(tmp_path, {"src/calc.py": CACHE_VIOLATION})
        rc = reprolint_main(["src", "--root", str(tmp_path)])
        out = capsys.readouterr()
        assert rc == 1
        assert "[cache-invalidation]" in out.out
        assert "fix:" in out.out

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        write_fixture(tmp_path, {"src/calc.py": CACHE_CLEAN})
        rc = reprolint_main(["src", "--root", str(tmp_path)])
        assert rc == 0

    def test_stale_baseline_entry_fails(self, tmp_path, capsys):
        write_fixture(tmp_path, {"src/calc.py": CACHE_CLEAN})
        bl = tmp_path / "baseline.json"
        bl.write_text(json.dumps({"entries": [
            {"rule": "cache-invalidation", "path": "src/calc.py",
             "message": "long gone", "reason": "fixed ages ago"}]}))
        rc = reprolint_main(
            ["src", "--root", str(tmp_path), "--baseline", str(bl)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "stale baseline entry" in err

    def test_counts_json_artifact(self, tmp_path, capsys):
        write_fixture(tmp_path, {"src/calc.py": CACHE_VIOLATION})
        out_json = tmp_path / "artifacts" / "reprolint.json"
        reprolint_main(["src", "--root", str(tmp_path),
                        "--counts-json", str(out_json)])
        snap = json.loads(out_json.read_text())
        assert snap["counters"]["reprolint.findings.cache-invalidation"] == 1.0

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        rc = reprolint_main(["nonexistent", "--root", str(tmp_path)])
        assert rc == 2


class TestRepositoryPin:
    """The landed tree is clean, and the canaries prove the teeth."""

    def test_repository_is_reprolint_clean(self, capsys):
        rc = reprolint_main(["src", "tools", "benchmarks",
                             "--root", str(REPO_ROOT)])
        out = capsys.readouterr()
        assert rc == 0, f"reprolint regressions:\n{out.out}"

    def test_canary_uninvalidated_cache_fails(self, tmp_path, capsys):
        """Re-introducing the PR-2 bug class must fail the CLI."""
        write_fixture(tmp_path, {"src/repro/tb/calculator.py": '''
class TBCalculator:
    def __init__(self):
        self._results_cache = None
        self._pattern_cache = None

    def compute(self, atoms):
        self._results_cache = {"energy": -4.0}
        self._pattern_cache = object()

    def invalidate(self):
        self._results_cache = None
        # _pattern_cache forgotten: the canary
'''})
        rc = reprolint_main(["src", "--root", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "_pattern_cache" in out

    def test_canary_off_catalog_metric_fails(self, tmp_path, capsys):
        write_fixture(tmp_path, {
            "docs/observability.md":
                "| `service.warm_evals` | warm evals |\n",
            "src/repro/service/thing.py": '''
from repro import obs

def record():
    obs.counter_inc("service.renamed_evals")
''',
        })
        rc = reprolint_main(["src", "--root", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "service.renamed_evals" in out

    def test_shipped_baseline_is_documented(self):
        """Every entry in the checked-in baseline has a real reason."""
        baseline = load_baseline(
            REPO_ROOT / "tools" / "reprolint" / "baseline.json")
        for key, entry in baseline.items():
            assert "TODO" not in entry["reason"], key


class TestTypingRatchet:
    def test_ratchet_config_consistent(self, capsys):
        assert ratchet_main([]) == 0

    def test_ratchet_manifest_nonempty(self):
        manifest = (REPO_ROOT / "tools" / "typing_ratchet.txt").read_text()
        mods = [ln for ln in manifest.splitlines()
                if ln.strip() and not ln.startswith("#")]
        assert len(mods) >= 7
        assert "repro.state" in mods
        assert "repro.service.protocol" in mods

    def test_py_typed_shipped(self):
        assert (REPO_ROOT / "src" / "repro" / "py.typed").exists()

    def test_deleted_module_is_not_a_demotion(self, tmp_path, monkeypatch):
        (tmp_path / "repro" / "pkg").mkdir(parents=True)
        (tmp_path / "repro" / "kept.py").write_text("")
        base = {"repro.kept", "repro.pkg", "repro.gone", "repro.pkg.gone"}
        assert check_ratchet.demoted(base, {"repro.kept", "repro.pkg"},
                                     src=tmp_path) == []
        # the live tree: a base manifest naming a module src/ no longer has
        live = check_ratchet.parse_manifest(
            check_ratchet.MANIFEST.read_text(encoding="utf-8"))
        monkeypatch.setattr(check_ratchet, "manifest_at_ref",
                            lambda ref: live | {"repro.obs.gone"})
        assert ratchet_main(["--base", "BASE"]) == 0

    def test_present_module_off_the_manifest_still_fails(
            self, tmp_path, monkeypatch, capsys):
        (tmp_path / "repro" / "pkg").mkdir(parents=True)
        (tmp_path / "repro" / "kept.py").write_text("")
        assert check_ratchet.demoted({"repro.kept", "repro.pkg"}, set(),
                                     src=tmp_path) == ["repro.kept",
                                                       "repro.pkg"]
        live = check_ratchet.parse_manifest(
            check_ratchet.MANIFEST.read_text(encoding="utf-8"))
        assert "repro.neighbors.verlet" not in live
        monkeypatch.setattr(check_ratchet, "manifest_at_ref",
                            lambda ref: live | {"repro.neighbors.verlet"})
        assert ratchet_main(["--base", "BASE"]) == 1
        assert "repro.neighbors.verlet was on the ratchet at BASE" in \
            capsys.readouterr().err
