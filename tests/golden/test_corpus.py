"""Every golden-corpus command gives the exit code and the bytes it pins.

The corpus and the script that rewrites it are ``corpus.json`` and
``regen.py`` beside this file.
"""

import pytest

import regen
from bellbounds import sampling

CORPUS = regen.load()


@pytest.mark.parametrize("entry", CORPUS["entries"], ids=[e["name"] for e in CORPUS["entries"]])
def test_entry(entry, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    want = {k: v for k, v in entry.items() if k not in ("name", "argv")}
    assert regen.run(entry["argv"], CORPUS["inputs"]) == want


SAMPLED = [e for e in CORPUS["entries"] if "--samples" in e["argv"]]


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("entry", SAMPLED, ids=[e["name"] for e in SAMPLED])
def test_sampled_entry_on_any_thread_count(entry, cpus, tmp_path, monkeypatch):
    # the command picks its thread count from the CPUs it may use, so the
    # entry alone cannot show that the count leaves its bytes alone
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: cpus)
    test_entry(entry, tmp_path, monkeypatch)
