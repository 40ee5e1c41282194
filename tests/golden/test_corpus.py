"""Every golden-corpus command gives the exit code and the bytes it pins.

The corpus and the script that rewrites it are ``corpus.json`` and
``regen.py`` beside this file.
"""

import pytest

import regen

CORPUS = regen.load()


@pytest.mark.parametrize("entry", CORPUS["entries"], ids=[e["name"] for e in CORPUS["entries"]])
def test_entry(entry, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    want = {k: v for k, v in entry.items() if k not in ("name", "argv")}
    assert regen.run(entry["argv"], CORPUS["inputs"]) == want
