"""Link and anchor checker for the repository's markdown documentation.

Scans every ``*.md`` at the repo root and under ``docs/`` and verifies:

* relative links point at files (or directories) that exist;
* ``#fragment`` links — both in-page and cross-page — name a real
  heading (GitHub slug rules: lowercase, punctuation dropped, spaces
  to dashes);
* no link target is an absolute filesystem path;
* every private name quoted as code (``_name`` or ``Class._name`` in
  single backticks) in the documents that describe the code —
  ``README.md``, ``ARCHITECTURE.md`` and ``docs/`` — still occurs as
  an identifier under ``src/``, so
  a refactor that deletes a helper cannot leave its description
  behind. ``CHANGES.md`` and ``ROADMAP.md`` are exempt: they name
  removed code on purpose.

External ``http(s)`` links are not fetched (CI must not depend on the
network); they are only checked for an empty target. Exit code 0 means
clean; 1 prints one line per problem, so the docs CI job fails loudly.

Usage::

    python tools/check_docs.py [repo_root]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: ``[text](target)`` — markdown links, excluding images' leading ``!``.
LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)
#: A backticked private name, optionally qualified by a class and
#: followed by ``()``; group 1 is the bare ``_name``.
PRIVATE_NAME = re.compile(r"`(?:[A-Z]\w*\.)?(_[A-Za-z]\w*)(?:\(\))?`")
#: Every underscore-led identifier in a source file.
SOURCE_PRIVATE = re.compile(r"\b_\w+")


def github_slug(heading: str) -> str:
    """The anchor GitHub generates for a heading."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def markdown_files(root: Path) -> list[Path]:
    files = sorted(root.glob("*.md"))
    docs = root / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.rglob("*.md")))
    return files


def code_docs(root: Path) -> list[Path]:
    """The documents that describe the code as it is now."""
    files = [root / name for name in ("README.md", "ARCHITECTURE.md")]
    files = [path for path in files if path.is_file()]
    docs = root / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.rglob("*.md")))
    return files


def source_private_names(root: Path) -> set[str]:
    """Every underscore-led identifier in the Python files under src/."""
    names: set[str] = set()
    for path in sorted((root / "src").rglob("*.py")):
        names.update(SOURCE_PRIVATE.findall(path.read_text(encoding="utf-8")))
    return names


def stale_private_names(root: Path) -> list[str]:
    """One problem per backticked private name no source file holds."""
    problems: list[str] = []
    known = source_private_names(root)
    for source in code_docs(root):
        text = CODE_FENCE.sub("", source.read_text(encoding="utf-8"))
        for name in sorted(set(PRIVATE_NAME.findall(text)) - known):
            problems.append(
                f"{source.relative_to(root)}: `{name}` occurs nowhere under src/"
            )
    return problems


def anchors_of(path: Path) -> set[str]:
    text = CODE_FENCE.sub("", path.read_text(encoding="utf-8"))
    return {github_slug(match) for match in HEADING.findall(text)}


def check(root: Path) -> list[str]:
    problems: list[str] = []
    anchor_cache: dict[Path, set[str]] = {}

    def anchors(path: Path) -> set[str]:
        if path not in anchor_cache:
            anchor_cache[path] = anchors_of(path)
        return anchor_cache[path]

    for source in markdown_files(root):
        text = CODE_FENCE.sub("", source.read_text(encoding="utf-8"))
        for target in LINK.findall(text):
            where = f"{source.relative_to(root)}: ({target})"
            if not target:
                problems.append(f"{where} empty link target")
                continue
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if target.startswith("/"):
                problems.append(f"{where} absolute path link")
                continue
            path_part, _, fragment = target.partition("#")
            resolved = (
                source.parent / path_part if path_part else source
            ).resolve()
            if not resolved.exists():
                problems.append(f"{where} target does not exist")
                continue
            if fragment:
                if resolved.is_dir() or resolved.suffix != ".md":
                    problems.append(
                        f"{where} fragment on a non-markdown target"
                    )
                elif github_slug(fragment) not in anchors(resolved):
                    problems.append(
                        f"{where} anchor #{fragment} not found in "
                        f"{resolved.name}"
                    )
    return problems + stale_private_names(root)


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    root = Path(args[0]).resolve() if args else Path(__file__).resolve().parents[1]
    problems = check(root)
    if problems:
        print("documentation problems:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    count = len(markdown_files(root))
    print(
        f"docs OK: {count} markdown files, all links and anchors resolve, "
        "every private name the code docs cite exists"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
