"""The markdown documentation's links and anchors must resolve.

Runs the same checker the CI docs job uses (``tools/check_docs.py``)
inside tier-1, so a broken README/ARCHITECTURE/docs link fails locally
before it fails in CI — and verifies the documents ISSUE 4 promises
actually exist.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_docs", module)
    spec.loader.exec_module(module)
    return module


def test_required_documents_exist():
    assert (ROOT / "README.md").is_file()
    assert (ROOT / "docs" / "isql-reference.md").is_file()
    assert (ROOT / "ARCHITECTURE.md").is_file()


def test_readme_links_the_language_reference():
    text = (ROOT / "README.md").read_text()
    assert "docs/isql-reference.md" in text
    assert "ARCHITECTURE.md" in text


def test_all_markdown_links_and_anchors_resolve():
    checker = _checker()
    problems = checker.check(ROOT)
    assert problems == []


def test_checker_flags_a_broken_link(tmp_path):
    (tmp_path / "a.md").write_text("see [missing](nope.md) and [ok](b.md#title)")
    (tmp_path / "b.md").write_text("# Title\nbody")
    checker = _checker()
    problems = checker.check(tmp_path)
    assert len(problems) == 1 and "nope.md" in problems[0]


def test_checker_flags_a_private_name_gone_from_the_source(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        "class Thing:\n    def _kept(self):\n        return _helper()\n"
    )
    (tmp_path / "ARCHITECTURE.md").write_text(
        "`Thing._kept()` calls `_helper`; `Thing._gone` was removed.\n"
        "```\n_fenced_code_is_not_checked\n```\n"
    )
    # History may name removed code: only the code docs are checked.
    (tmp_path / "CHANGES.md").write_text("Deleted `_gone_for_good`.\n")
    checker = _checker()
    problems = checker.check(tmp_path)
    assert len(problems) == 1 and "`_gone`" in problems[0], problems
