"""Tests for ``scripts/check_orphans.py``, the lint that every definition
in ``src/repro`` has a caller outside the tests."""

import importlib.util
import os
import subprocess
import sys
import textwrap

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "scripts", "check_orphans.py")

_spec = importlib.util.spec_from_file_location("check_orphans", SCRIPT)
check_orphans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_orphans)


def make_tree(root, files):
    """Write ``{relative path: source}`` under ``root``."""
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return str(root)


def orphan_names(root, allowed=()):
    orphans, stale = check_orphans.find_orphans(root, allowed)
    return sorted(line.rsplit(": ", 1)[1] for line in orphans), stale


def test_repository_has_no_orphans():
    proc = subprocess.run(
        [sys.executable, SCRIPT], capture_output=True, text=True, cwd=REPO
    )
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout == ""


def test_every_allowlist_entry_gives_a_reason():
    for name, reason in check_orphans.ALLOWED.items():
        assert isinstance(reason, str) and reason.strip(), name


def test_uncalled_function_class_and_method_are_reported(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/mod.py": """
            def lonely():
                return 1

            class Unused:
                pass

            class Used:
                def spare(self):
                    return 2
        """,
        "src/repro/main.py": """
            from repro.mod import Used
            Used()
        """,
    })
    orphans, stale = orphan_names(root)
    assert orphans == ["Unused", "Used.spare", "lonely"]
    assert stale == []


def test_orphan_lines_name_path_and_line(tmp_path):
    root = make_tree(tmp_path, {"src/repro/mod.py": "\n\ndef lonely():\n    pass\n"})
    orphans, _ = check_orphans.find_orphans(root, {})
    assert orphans == [f"{os.path.join('src', 'repro', 'mod.py')}:3: lonely"]


@pytest.mark.parametrize("directory", ["src", "examples", "scripts", "benchmarks", "ledger"])
def test_a_caller_in_any_scanned_tree_keeps_a_definition(tmp_path, directory):
    root = make_tree(tmp_path, {
        "src/repro/mod.py": "def helper():\n    pass\n",
        f"{directory}/caller.py": "import repro.mod\nrepro.mod.helper()\n",
    })
    assert orphan_names(root) == ([], [])


def test_a_caller_only_in_tests_does_not_count(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/mod.py": "def helper():\n    pass\n",
        "tests/test_mod.py": "from repro.mod import helper\nhelper()\n",
    })
    assert orphan_names(root)[0] == ["helper"]


def test_recursion_inside_its_own_body_does_not_count(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/mod.py": """
            def countdown(n):
                return n if n <= 0 else countdown(n - 1)
        """,
    })
    assert orphan_names(root)[0] == ["countdown"]


def test_imports_all_and_docstrings_are_not_references(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/mod.py": "def helper():\n    pass\n",
        "src/repro/__init__.py": '''
            """See helper for details."""
            from repro.mod import helper
            __all__ = ["helper"]
        ''',
    })
    assert orphan_names(root)[0] == ["helper"]


def test_getattr_and_hasattr_strings_are_references(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/mod.py": """
            class Engine:
                def on_tick(self):
                    pass

                def on_stop(self):
                    pass

            def drive(engine):
                getattr(engine, "on_tick", None)
                return hasattr(engine, "on_stop")
        """,
        "src/repro/main.py": "from repro.mod import Engine, drive\ndrive(Engine())\n",
    })
    assert orphan_names(root) == ([], [])


@pytest.mark.parametrize("name", ["handle_Vote", "cmd_run", "__call__"])
def test_dispatch_shapes_are_exempt(tmp_path, name):
    root = make_tree(tmp_path, {
        "src/repro/mod.py": f"""
            class Replica:
                def {name}(self):
                    pass

            Replica()
        """,
    })
    assert orphan_names(root) == ([], [])


def test_allowed_orphan_passes_and_stale_entry_fails(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/mod.py": """
            def kept():
                pass

            def called():
                pass

            called()
        """,
    })
    allowed = {
        "src/repro/mod.py:kept": "query API",
        "src/repro/mod.py:called": "has a caller now",
        "src/repro/mod.py:gone": "deleted",
    }
    assert orphan_names(root, allowed) == (
        [], ["src/repro/mod.py:called", "src/repro/mod.py:gone"]
    )


def test_an_allowlist_entry_covers_only_its_own_definition(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/mod.py": """
            class A:
                def duration(self):
                    pass

            class B:
                def duration(self):
                    pass

            A()
            B()
        """,
        "src/repro/other.py": "def duration():\n    pass\n",
    })
    allowed = {"src/repro/mod.py:A.duration": "query API"}
    assert orphan_names(root, allowed) == (["B.duration", "duration"], [])


def test_script_exits_one_and_lists_orphans(tmp_path):
    make_tree(tmp_path, {"src/repro/mod.py": "def lonely():\n    pass\n"})
    script = tmp_path / "scripts" / "check_orphans.py"
    script.parent.mkdir()
    script.write_text(open(SCRIPT, encoding="utf-8").read())
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, cwd=tmp_path
    )
    assert proc.returncode == 1
    assert "orphan: " + os.path.join("src", "repro", "mod.py") + ":1: lonely" in proc.stdout
    # Every ALLOWED name is absent from this tree, so each is stale.
    for name in check_orphans.ALLOWED:
        assert f"stale allowlist entry (has a caller, or no definition): {name}" in proc.stdout
