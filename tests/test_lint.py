"""Fixture-based self-tests for ``repro.lint``.

Every rule is asserted twice: it fires on a minimal seeded violation with
the right code, and it stays silent on the idiomatic form the codebase
actually uses (the ``if rng is None`` good case, the service numeric
boundary module, the ``runtime=`` sink, ...).  The suite ends with the acceptance
property: the shipped ``src/`` tree lints clean with an empty allowlist.
"""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    Allowlist,
    RULES,
    lint_paths,
    lint_source,
    run_lint,
)

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


def codes(findings):
    return [f.code for f in findings]


# -- R1: seed discipline ---------------------------------------------------


class TestSeedDiscipline:
    def test_legacy_np_random_fires(self):
        fs = lint_source(
            "import numpy as np\nx = np.random.rand(4)\n",
            module="repro.core.example",
        )
        assert codes(fs) == ["RPR101"]
        assert "default_rng" in fs[0].message  # fix-it names the idiom

    def test_np_random_seed_fires(self):
        fs = lint_source(
            "import numpy as np\nnp.random.seed(1234)\n",
            module="repro.core.example",
        )
        assert codes(fs) == ["RPR101"]

    def test_seeded_default_rng_is_silent(self):
        fs = lint_source(
            "import numpy as np\n"
            "rng = np.random.default_rng(derive_seed(seed, 3))\n",
            module="repro.core.example",
        )
        assert fs == []

    def test_seed_sequence_is_silent(self):
        fs = lint_source(
            "import numpy as np\n"
            "rng = np.random.default_rng(np.random.SeedSequence([s, 4]))\n",
            module="repro.api.example",
        )
        assert fs == []

    def test_argless_default_rng_fires(self):
        fs = lint_source(
            "import numpy as np\nrng = np.random.default_rng()\n",
            module="repro.core.example",
        )
        assert codes(fs) == ["RPR102"]

    def test_stdlib_random_import_fires(self):
        assert codes(
            lint_source("import random\n", module="repro.core.example")
        ) == ["RPR102"]
        assert codes(
            lint_source("from random import choice\n", module="repro.core.example")
        ) == ["RPR102"]

    def test_rng_truthiness_or_fires(self):
        fs = lint_source(
            "def f(rng=None):\n    rng = rng or make_rng()\n    return rng\n",
            module="repro.sim.example",
        )
        assert codes(fs) == ["RPR103"]
        assert "is None" in fs[0].message

    def test_rng_truthiness_if_and_ifexp_fire(self):
        fs = lint_source(
            "def f(trigger_rng=None):\n"
            "    if not trigger_rng:\n"
            "        pass\n"
            "    x = 1 if trigger_rng else 2\n",
            module="repro.trojan.example",
        )
        assert codes(fs) == ["RPR103", "RPR103"]

    def test_if_rng_is_none_good_case_is_silent(self):
        fs = lint_source(
            "import numpy as np\n"
            "def f(rng=None):\n"
            "    if rng is None:\n"
            "        rng = np.random.default_rng(0)\n"
            "    return rng\n",
            module="repro.sim.example",
        )
        assert fs == []

    def test_non_rng_truthiness_is_silent(self):
        fs = lint_source(
            "def f(runtime=None):\n    runtime = runtime or {}\n",
            module="repro.api.example",
        )
        assert fs == []


# -- R2: payload purity ----------------------------------------------------


class TestPayloadPurity:
    def test_direct_time_in_payload_field_fires(self):
        fs = lint_source(
            "import time\n"
            "def f(spec):\n"
            "    return ExperimentRecord(spec=spec, trigger={'t': time.time()})\n",
            module="repro.api.example",
        )
        assert codes(fs) == ["RPR201"]

    def test_one_hop_taint_fires(self):
        fs = lint_source(
            "import time\n"
            "def f(spec):\n"
            "    t0 = time.perf_counter()\n"
            "    return ExperimentRecord(spec=spec, detection={'dt': t0})\n",
            module="repro.api.example",
        )
        assert codes(fs) == ["RPR201"]

    def test_env_probe_fires(self):
        fs = lint_source(
            "import os\n"
            "def f(spec):\n"
            "    return ExperimentRecord.failed(spec, os.environ['HOST'])\n",
            module="repro.api.example",
        )
        assert codes(fs) == ["RPR201"]

    def test_runtime_sink_is_silent(self):
        fs = lint_source(
            "import time\n"
            "def f(spec):\n"
            "    t0 = time.perf_counter()\n"
            "    runtime = {'total': time.perf_counter() - t0}\n"
            "    return ExperimentRecord(spec=spec, runtime=runtime)\n",
            module="repro.api.example",
        )
        assert fs == []

    def test_from_run_positional_runtime_is_silent(self):
        # Mirrors runner.execute_experiment: tainted dict passed as the
        # 4th positional (runtime) argument of from_run.
        fs = lint_source(
            "import time\n"
            "def f(spec, result, evasion):\n"
            "    t0 = time.perf_counter()\n"
            "    runtime = {'timings': {'total': time.perf_counter() - t0}}\n"
            "    return ExperimentRecord.from_run(spec, result, evasion, runtime)\n",
            module="repro.api.example",
        )
        assert fs == []

    def test_runtime_readback_fires(self):
        fs = lint_source(
            "def f(spec, rec):\n"
            "    return ExperimentRecord(spec=spec, detection=rec.runtime['x'])\n",
            module="repro.api.example",
        )
        assert "RPR202" in codes(fs)

    def test_runtime_get_readback_fires(self):
        fs = lint_source(
            "def f(spec, d):\n"
            "    return ExperimentRecord(spec=spec, trigger=d.get('runtime'))\n",
            module="repro.api.example",
        )
        assert "RPR202" in codes(fs)

    def test_module_without_record_construction_is_out_of_scope(self):
        fs = lint_source(
            "import time\nNOW = time.time()\n",
            module="repro.power.example",
        )
        assert fs == []


# -- R4: service hygiene ---------------------------------------------------


class TestServiceHygiene:
    def test_third_party_import_fires(self):
        fs = lint_source(
            "import requests\n", module="repro.service.example"
        )
        assert codes(fs) == ["RPR401"]

    def test_numpy_in_server_fires_but_store_is_boundary(self):
        assert codes(
            lint_source("import numpy as np\n", module="repro.service.server")
        ) == ["RPR401"]
        assert lint_source(
            "import numpy as np\n", module="repro.service.store"
        ) == []

    def test_stdlib_and_repro_imports_are_silent(self):
        fs = lint_source(
            "import json\nimport threading\n"
            "from ..api.spec import CampaignSpec\n"
            "from repro.api.runner import ExperimentRecord\n",
            module="repro.service.example",
        )
        assert fs == []

    LOCKED = (
        "import threading\n"
        "class Server:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.jobs = {}\n"
        "        self.n_errors = 0\n"
        "    def guarded(self, k, v):\n"
        "        with self._lock:\n"
        "            self.jobs[k] = v\n"
        "            self.n_errors += 1\n"
    )

    def test_unguarded_store_fires(self):
        fs = lint_source(
            self.LOCKED
            + "    def bad(self):\n"
            + "        self.n_errors = 0\n",
            module="repro.service.example",
        )
        assert codes(fs) == ["RPR402"]
        assert "n_errors" in fs[0].message

    def test_unguarded_subscript_and_mutating_call_fire(self):
        fs = lint_source(
            self.LOCKED
            + "    def bad(self, k, v):\n"
            + "        self.jobs[k] = v\n"
            + "        self.jobs.update({k: v})\n",
            module="repro.service.example",
        )
        assert codes(fs) == ["RPR402", "RPR402"]

    def test_init_is_exempt_and_guarded_mutations_are_silent(self):
        assert lint_source(self.LOCKED, module="repro.service.example") == []

    def test_unrelated_attributes_are_silent(self):
        fs = lint_source(
            self.LOCKED
            + "    def fine(self):\n"
            + "        self.started = True\n",  # never lock-guarded
            module="repro.service.example",
        )
        assert fs == []

    def test_module_without_locks_is_out_of_scope(self):
        fs = lint_source(
            "class Plain:\n"
            "    def set(self, v):\n"
            "        self.value = v\n",
            module="repro.api.example",
        )
        assert fs == []


# -- allowlist / suppression ----------------------------------------------


class TestAllowlist:
    VIOLATION = "import numpy as np\nrng = np.random.default_rng()\n"

    def test_allowlist_file_suppresses(self, tmp_path):
        bad = tmp_path / "repro" / "core" / "example.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(self.VIOLATION)
        raw, _ = lint_paths([tmp_path])
        assert codes(raw) == ["RPR102"]
        allow = tmp_path / "allow.txt"
        allow.write_text("# comment\nrepro/core/example.py:RPR102\n")
        filtered, _ = lint_paths(
            [tmp_path], allowlist=Allowlist.from_file(allow)
        )
        assert filtered == []

    def test_line_pinned_allowlist_entry(self, tmp_path):
        bad = tmp_path / "repro" / "core" / "example.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(self.VIOLATION)
        wrong_line = Allowlist({("repro/core/example.py", "RPR102", 99)})
        assert codes(lint_paths([tmp_path], allowlist=wrong_line)[0]) == ["RPR102"]
        right_line = Allowlist({("repro/core/example.py", "RPR102", 2)})
        assert lint_paths([tmp_path], allowlist=right_line)[0] == []

    def test_inline_comment_suppresses(self, tmp_path):
        bad = tmp_path / "repro" / "core" / "example.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import numpy as np\n"
            "rng = np.random.default_rng()  # lint: allow[RPR102]\n"
        )
        assert lint_paths([tmp_path])[0] == []

    def test_inline_comment_is_code_specific(self, tmp_path):
        bad = tmp_path / "repro" / "core" / "example.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import numpy as np\n"
            "rng = np.random.default_rng()  # lint: allow[RPR999]\n"
        )
        assert codes(lint_paths([tmp_path])[0]) == ["RPR102"]


# -- CLI / reporting -------------------------------------------------------


class TestCli:
    def test_unparseable_file_is_a_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        findings, n = lint_paths([tmp_path])
        assert n == 1
        assert codes(findings) == ["RPR000"]

    def test_run_lint_exit_codes_and_format(self, tmp_path):
        bad = tmp_path / "repro" / "core" / "example.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\n")
        buf = io.StringIO()
        assert run_lint([str(tmp_path)], out=buf) == 1
        text = buf.getvalue()
        assert "RPR102" in text and "example.py:1:" in text
        ok = io.StringIO()
        bad.write_text("import json\n")
        assert run_lint([str(tmp_path)], out=ok) == 0
        assert "0 finding(s)" in ok.getvalue()

    def test_json_mode_shape(self, tmp_path):
        bad = tmp_path / "repro" / "core" / "example.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\n")
        buf = io.StringIO()
        assert run_lint([str(tmp_path)], as_json=True, out=buf) == 1
        doc = json.loads(buf.getvalue())
        assert doc["version"] == 1 and doc["checked_files"] == 1
        (finding,) = doc["findings"]
        assert finding["rule"] == "RPR102"
        assert finding["line"] == 1
        assert finding["snippet"] == "import random"
        assert finding["path"].endswith("example.py")

    def test_select_filters_rules(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "example.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nimport numpy as np\nnp.random.seed(0)\n")
        assert codes(lint_paths([tmp_path])[0]) == ["RPR102", "RPR101"]
        only_101, _ = lint_paths([tmp_path], select=["RPR101"])
        assert codes(only_101) == ["RPR101"]

    def test_unknown_select_code_errors(self):
        assert run_lint(["src"], select="RPR999", out=io.StringIO()) == 2

    def test_missing_path_errors(self):
        assert run_lint(["no/such/dir"], out=io.StringIO()) == 2

    def test_repro_cli_subcommand(self, tmp_path):
        bad = tmp_path / "repro" / "core" / "example.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\n")
        env_src = str(SRC_ROOT)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(tmp_path)],
            capture_output=True, text=True,
            env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "RPR102" in proc.stdout

    def test_rule_registry_is_complete(self):
        expected = {
            "RPR101", "RPR102", "RPR103",
            "RPR201", "RPR202",
            "RPR401", "RPR402",
        }
        assert set(RULES) == expected
        for rl in RULES.values():
            assert rl.rationale  # every rule names the guarantee it protects


# -- acceptance: the shipped tree is clean ---------------------------------


def test_shipped_tree_lints_clean_with_empty_allowlist():
    assert SRC_ROOT.is_dir()
    findings, n_files = lint_paths([SRC_ROOT], allowlist=Allowlist())
    assert n_files > 80  # the whole source tree was actually walked
    assert findings == [], [f.format() for f in findings]


def test_seeded_violation_makes_cli_exit_nonzero(tmp_path):
    bad = tmp_path / "repro" / "api" / "example.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "import time\n"
        "def f(spec):\n"
        "    return ExperimentRecord(spec=spec, trigger={'t': time.time()})\n"
    )
    buf = io.StringIO()
    assert run_lint([str(tmp_path)], out=buf) == 1
    assert "RPR201" in buf.getvalue()
