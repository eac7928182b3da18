#!/usr/bin/env python3
"""Regenerate the shipped theorem files from the theorem library in izf.corpus.

Run from the repository root: python scripts/gen_corpus.py
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from izf.corpus import corpus_files, render_corpus_file  # noqa: E402


def main() -> None:
    root = pathlib.Path(__file__).resolve().parents[1] / "corpus"
    root.mkdir(exist_ok=True)
    for filename, (mode, entries, directives) in corpus_files().items():
        path = root / filename
        path.write_text(render_corpus_file(mode, entries, directives), encoding="utf-8")
        print(f"wrote {path} ({len(entries)} theorems)")


if __name__ == "__main__":
    main()
