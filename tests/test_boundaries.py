"""The registry boundary holds: nothing outside repro.coding touches
the legacy BURST_FORMATS/_SCHEMES views, and nothing in src/repro
imports the test oracles (see tools/lint_boundaries.py, which CI runs
as a standalone step)."""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
LINTER = REPO_ROOT / "tools" / "lint_boundaries.py"


def _load_linter():
    spec = importlib.util.spec_from_file_location("lint_boundaries", LINTER)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("lint_boundaries", module)
    spec.loader.exec_module(module)
    return module


class TestBoundaryLint:
    def test_tree_is_clean(self):
        lint = _load_linter()
        assert lint.check_tree() == []

    def test_catches_legacy_import(self):
        lint = _load_linter()
        bad = "from ..coding.pipeline import BURST_FORMATS\n"
        problems = lint.check_source(bad, "fake.py")
        assert len(problems) == 1
        assert "BURST_FORMATS" in problems[0]
        assert "registry" in problems[0]

    def test_catches_attribute_spelling(self):
        lint = _load_linter()
        bad = (
            "from repro.coding import pipeline\n"
            "x = pipeline.BURST_FORMATS['dbi']\n"
        )
        problems = lint.check_source(bad, "fake.py")
        assert any("BURST_FORMATS" in p for p in problems)

    def test_catches_codec_class_import(self):
        lint = _load_linter()
        bad = "from ..coding.milc import MiLCCode\n"
        problems = lint.check_source(bad, "fake.py")
        assert len(problems) == 1
        assert "MiLCCode" in problems[0]
        assert "codec_for" in problems[0]

    def test_catches_codec_class_import_from_package(self):
        lint = _load_linter()
        bad = "from repro.coding import DBICode, codec_for\n"
        problems = lint.check_source(bad, "fake.py")
        assert len(problems) == 1
        assert "DBICode" in problems[0]

    def test_allows_unregistered_helper_classes(self):
        lint = _load_linter()
        good = (
            "from ..coding.optimal_lwc import OptimalStaticLWC\n"
            "from ..coding.businvert import BusInvertCode\n"
            "from ..coding.transition import TransitionSignaling\n"
        )
        assert lint.check_source(good, "fake.py") == []

    def test_allows_local_tuples_and_registry(self):
        lint = _load_linter()
        good = (
            "_SCHEMES = ('raw', 'dbi')\n"
            "from ..coding.registry import scheme_info, real_schemes\n"
            "bl = scheme_info('dbi').burst_length\n"
        )
        assert lint.check_source(good, "fake.py") == []


class TestEventCoreBoundaries:
    """The event-core ownership rules (DESIGN.md, "Event core")."""

    def test_catches_event_heap_import(self):
        lint = _load_linter()
        for bad in (
            "from repro.system.events import EventQueue\n",
            "from ..system.events import EventQueue\n",
            "from repro.system import events\n",
            "import repro.system.events\n",
        ):
            problems = lint.check_source(bad, "fake.py")
            assert len(problems) == 1, bad
            assert "repro.system.events" in problems[0]

    def test_owner_package_may_use_the_heap(self):
        lint = _load_linter()
        good = "from .events import EventQueue\n"
        assert lint.check_source(good, "fake.py", package="system") == []

    def test_other_events_modules_stay_importable(self):
        lint = _load_linter()
        good = (
            "from .events import RunEvent, null_sink\n"
            "from repro.campaign.events import ProgressLine\n"
            "from repro.serve.events import EventLog\n"
        )
        assert lint.check_source(good, "fake.py", package="campaign") == []

    def test_catches_controller_internal_attribute(self):
        lint = _load_linter()
        bad = (
            "mc = build()\n"
            "pick, wake = mc._schedule_query(now)\n"
            "from repro.controller.controller import _schedule_query\n"
        )
        problems = lint.check_source(bad, "fake.py")
        assert len(problems) == 2
        assert all("_schedule_query" in p for p in problems)

    def test_catches_ready_index_internals(self):
        lint = _load_linter()
        bad = (
            "index = mc._ready_index\n"
            "index._rederive(0, buckets, dirty)\n"
        )
        problems = lint.check_source(bad, "fake.py")
        assert len(problems) == 2
        assert "_ready_index" in problems[0]
        assert "_rederive" in problems[1]

    def test_controller_package_is_exempt(self):
        lint = _load_linter()
        good = "pick, wake = self._schedule_query(now)\n"
        assert lint.check_source(good, "fake.py", package="controller") == []

    def test_public_surface_stays_clean(self):
        lint = _load_linter()
        good = (
            "mc.sync(now)\n"
            "issued = mc.step(now)\n"
            "wake = mc.next_event(now)\n"
        )
        assert lint.check_source(good, "fake.py") == []


class TestOraclesStayInTests:
    """No module under src/repro imports the tests package."""

    def test_catches_every_spelling(self):
        lint = _load_linter()
        for bad in (
            "from tests.oracles.codecs import ReferenceDBI\n",
            "from tests.oracles import fullscan\n",
            "from tests import oracles\n",
            "import tests.oracles.lockstep\n",
            "import tests\n",
        ):
            problems = lint.check_source(bad, "fake.py")
            assert len(problems) == 1, bad
            assert "tests" in problems[0]

    def test_applies_inside_the_coding_package_too(self, tmp_path):
        lint = _load_linter()
        coding = tmp_path / "coding"
        coding.mkdir()
        (coding / "fake.py").write_text(
            "from tests.oracles.codecs import ORACLES\n", encoding="utf-8"
        )
        problems = lint.check_tree(tmp_path)
        assert len(problems) == 1
        assert "tests.oracles.codecs" in problems[0]

    def test_relative_and_lookalike_imports_are_fine(self):
        lint = _load_linter()
        good = (
            "from .tests import helper\n"
            "from repro.audit import tests_of_timing\n"
            "import testsuite\n"
        )
        assert lint.check_source(good, "fake.py") == []
