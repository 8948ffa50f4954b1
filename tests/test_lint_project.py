"""Whole-program lardlint against the real tree: seeded mutations.

The acceptance bar for the interprocedural passes is not "fires on a
fixture" but "fires on the *tree* when someone makes the exact mistake
the pass exists for".  Each test copies ``src/repro`` to a temp dir,
applies one realistic mutation, and asserts the matching rule fires:

* a transitive ``time.time()`` below ``Engine.run``
                                            -> ``transitive-nondeterminism``
* removing a lock acquisition around a declared helper call
                                            -> ``unverified-locked-helper``
"""

import shutil
from pathlib import Path

import pytest

import repro
from repro.lint import lint_paths

REPRO_PACKAGE = Path(repro.__file__).resolve().parent


@pytest.fixture()
def tree_copy(tmp_path):
    root = tmp_path / "repro"
    shutil.copytree(REPRO_PACKAGE, root)
    return root


def _mutate(root, relpath, old, new):
    target = root / relpath
    text = target.read_text(encoding="utf-8")
    assert old in text, f"mutation anchor not found in {relpath}"
    target.write_text(text.replace(old, new, 1), encoding="utf-8")


def test_unmutated_tree_copy_is_clean(tree_copy):
    # The relocated copy also exercises the package-root anchoring of
    # scope classification (tmp_path contains no directory named repro
    # above the package itself).
    assert lint_paths([tree_copy]) == []


def test_transitive_wall_clock_below_engine_run_is_flagged_with_chain(tree_copy):
    _mutate(
        tree_copy,
        "sim/engine.py",
        '__all__ = ["Engine", "Process", "Delay", "SimulationError"]',
        '__all__ = ["Engine", "Process", "Delay", "SimulationError"]\n'
        "\n\n"
        "def _host_now():\n"
        "    import time as _t\n"
        "    return _t.time()\n"
        "\n\n"
        "def _tick_hook():\n"
        "    return _host_now()\n",
    )
    _mutate(
        tree_copy,
        "sim/engine.py",
        "        self._flush_nowq()\n        limit = _INF if until is None else until",
        "        self._flush_nowq()\n"
        "        _tick_hook()\n"
        "        limit = _INF if until is None else until",
    )
    findings = lint_paths([tree_copy])
    taint = [f for f in findings if f.rule == "transitive-nondeterminism"]
    assert taint, f"expected transitive-nondeterminism, got {[f.rule for f in findings]}"
    # The Engine.run call site must print the full witness chain.
    chains = [f.message for f in taint if "_tick_hook -> " in f.message]
    assert any("_host_now -> _t.time()" in message for message in chains)


def test_removing_lock_around_declared_helper_is_flagged(tree_copy):
    _mutate(
        tree_copy,
        "handoff/dispatcher.py",
        "        with self._lock:\n"
        "            node = self.policy.choose(target, size, now=time.monotonic())\n"
        "            if node != current_node:\n"
        "                self._release_load(current_node, target, size)",
        "        if True:\n"
        "            node = self.policy.choose(target, size, now=time.monotonic())\n"
        "            if node != current_node:\n"
        "                self._release_load(current_node, target, size)",
    )
    findings = lint_paths([tree_copy])
    rules = [f.rule for f in findings]
    assert "unverified-locked-helper" in rules, f"got {rules}"
