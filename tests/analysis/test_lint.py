"""Determinism lint: rule units on snippets, and a clean source tree."""

import os

from repro.analysis.lint import lint_paths, lint_source

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro")


def rules(source, rel="repro/some/module.py"):
    return [f.rule for f in lint_source(source, rel, rel)]


class TestRandomRule:
    def test_import_random_flagged(self):
        assert rules("import random\n") == ["direct-random"]
        assert rules("from random import shuffle\n") == ["direct-random"]

    def test_np_random_call_flagged(self):
        src = "import numpy as np\nx = np.random.default_rng(3)\n"
        assert rules(src) == ["direct-random"]

    def test_np_random_annotation_not_flagged(self):
        """Type annotations mention np.random.Generator everywhere; only
        *calls* conjure entropy."""
        src = (
            "import numpy as np\n"
            "def f(rng: np.random.Generator) -> None:\n"
            "    rng.random()\n"
        )
        assert rules(src) == []

    def test_rng_module_is_allowlisted(self):
        src = "import numpy as np\ng = np.random.default_rng(1)\n"
        assert rules(src, rel="repro/sim/rng.py") == []

    def test_numpy_random_imports_flagged(self):
        """Every import spelling that binds numpy's entropy module."""
        assert rules("import numpy.random\n") == ["direct-random"]
        assert rules("import numpy.random as npr\n") == ["direct-random"]
        assert rules("from numpy.random import default_rng\n") == [
            "direct-random"
        ]
        assert rules("from numpy import random\n") == ["direct-random"]

    def test_numpy_random_imports_allowed_in_rng_module(self):
        assert rules(
            "from numpy.random import default_rng\n", rel="repro/sim/rng.py"
        ) == []

    def test_numpy_non_random_import_fine(self):
        assert rules("from numpy import median\nimport numpy.linalg\n") == []


class TestTimeRule:
    def test_import_time_flagged(self):
        assert rules("import time\n") == ["direct-time"]
        assert rules("import time\nt = time.monotonic()\n") == [
            "direct-time",
            "direct-time",
        ]

    def test_experiments_cli_allowlisted(self):
        src = "import time\nt0 = time.perf_counter()\n"
        assert rules(src, rel="repro/experiments/__main__.py") == []


class TestSetIterationRule:
    KERNEL = "repro/network/router.py"

    def test_bare_set_attr_iteration_flagged_in_kernel(self):
        src = "def f(self):\n    for ivc in self._active_vcs:\n        pass\n"
        assert rules(src, rel=self.KERNEL) == ["set-iteration"]

    def test_sorted_wrapping_is_fine(self):
        src = "def f(self):\n    for ivc in sorted(self._active_vcs):\n        pass\n"
        assert rules(src, rel=self.KERNEL) == []

    def test_set_literal_and_call_flagged(self):
        assert rules("for x in {1, 2}:\n    pass\n", rel=self.KERNEL) == [
            "set-iteration"
        ]
        assert rules("for x in set(y):\n    pass\n", rel=self.KERNEL) == [
            "set-iteration"
        ]

    def test_comprehension_over_set_flagged(self):
        src = "vals = [x for x in self._routing_vcs]\n"
        assert rules(src, rel=self.KERNEL) == ["set-iteration"]

    def test_non_kernel_modules_not_flagged(self):
        src = "for x in self._active_vcs:\n    pass\n"
        assert rules(src, rel="repro/metrics/report.py") == []

    def test_order_free_reduction_is_fine(self):
        """min/max/sum/any/all results are permutation-invariant, so a
        generator over a kernel set directly inside one is deterministic."""
        src = "r = min((v.stage_ready for v in self._active_vcs), default=0)\n"
        assert rules(src, rel=self.KERNEL) == []
        src = "ok = any(v.flits for v in self._routing_vcs)\n"
        assert rules(src, rel=self.KERNEL) == []

    def test_reduction_exemption_is_not_transitive(self):
        """Only the comprehension handed to the reducer is exempt; a set
        iterated elsewhere in the expression is still flagged."""
        src = "r = min([x for x in sorted(s)] + [y for y in self._active_vcs])\n"
        assert rules(src, rel=self.KERNEL) == ["set-iteration"]

    def test_soa_backend_is_a_kernel_module(self):
        """The SoA engine's stage sets are under the same ordering rules
        as the object engine's."""
        src = "def f(self):\n    for i in self._va:\n        pass\n"
        assert rules(src, rel="repro/sim/soa.py") == ["set-iteration"]
        assert rules(src, rel="repro/core/wbfc.py") == ["set-iteration"]
        assert rules(
            "def f(self):\n    for i in sorted(self._sa):\n        pass\n",
            rel="repro/sim/soa.py",
        ) == []


class TestIdentityDictIterationRule:
    KERNEL = "repro/core/flit_level.py"

    def test_values_iteration_flagged_in_kernel(self):
        src = "def f(self):\n    for v in self.black_slots.values():\n        pass\n"
        assert rules(src, rel=self.KERNEL) == ["identity-dict-iteration"]

    def test_items_iteration_flagged_in_kernel(self):
        src = "def f(self):\n    for k, v in self.gray_slots.items():\n        pass\n"
        assert rules(src, rel=self.KERNEL) == ["identity-dict-iteration"]

    def test_comprehension_flagged(self):
        src = "vals = [v for v in self.black_slots.values()]\n"
        assert rules(src, rel=self.KERNEL) == ["identity-dict-iteration"]

    def test_order_free_reduction_is_exempt(self):
        """sum/min/max/any/all over an identity-keyed dict cannot depend on
        iteration order, so the reducer exemption applies here too."""
        src = "total = sum(v for v in self.black_slots.values())\n"
        assert rules(src, rel=self.KERNEL) == []
        src = "ok = any(v > 0 for v in self.gray_slots.values())\n"
        assert rules(src, rel=self.KERNEL) == []

    def test_direct_reducer_call_not_flagged(self):
        src = "total = sum(self.black_slots.values())\n"
        assert rules(src, rel=self.KERNEL) == []

    def test_other_dicts_not_flagged(self):
        """Only the known identity-keyed maps; string-keyed dicts iterate
        in a stable, content-determined order."""
        src = "for v in self.rings.values():\n    pass\n"
        assert rules(src, rel=self.KERNEL) == []

    def test_non_kernel_modules_not_flagged(self):
        src = "for v in self.black_slots.values():\n    pass\n"
        assert rules(src, rel="repro/metrics/report.py") == []

    def test_flit_level_is_a_kernel_module(self):
        """The scheme owning black_slots/gray_slots is under kernel rules."""
        src = "for x in set(y):\n    pass\n"
        assert rules(src, rel=self.KERNEL) == ["set-iteration"]


class TestMutableDefaultRule:
    def test_list_default_flagged(self):
        assert rules("def f(x=[]):\n    pass\n") == ["mutable-default"]
        assert rules("def f(*, x={}):\n    pass\n") == ["mutable-default"]
        assert rules("def f(x=dict()):\n    pass\n") == ["mutable-default"]

    def test_async_def_default_flagged(self):
        assert rules("async def f(x=[]):\n    pass\n") == ["mutable-default"]

    def test_none_default_fine(self):
        assert rules("def f(x=None, y=3, z=()):\n    pass\n") == []


class TestWholeTree:
    def test_src_repro_is_lint_clean(self):
        """CI gate: the shipped simulator contains zero determinism lints."""
        findings = lint_paths([REPO_SRC])
        assert findings == [], "\n".join(str(f) for f in findings)
