"""Every golden-corpus command gives the exit code and the bytes it pins.

The corpus and the script that rewrites it are ``corpus.json`` and
``regen.py`` beside this file.
"""

import pathlib
import sys
import types

import pytest

import regen
from bellbounds import catalog, cli, sampling
from bellbounds.polytope import EventStructure, Inequality

CORPUS = regen.load()


@pytest.mark.parametrize("entry", CORPUS["entries"], ids=[e["name"] for e in CORPUS["entries"]])
def test_entry(entry, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    want = {k: v for k, v in entry.items() if k not in ("name", "argv")}
    assert regen.run(entry["argv"], CORPUS["inputs"]) == want


SAMPLED = [e for e in CORPUS["entries"] if "--samples" in e["argv"] and e["exit"] == 0]


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("entry", SAMPLED, ids=[e["name"] for e in SAMPLED])
def test_sampled_entry_on_any_thread_count(entry, cpus, tmp_path, monkeypatch):
    # the command picks its thread count from the CPUs it may use, so the
    # entry alone cannot show that the count leaves its bytes alone
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: cpus)
    test_entry(entry, tmp_path, monkeypatch)


# the corpus entries of the README's sweeps and of the operator builds, whose
# commands are documented on the catalog's layout files
CATALOG_RUNS = ["operator-ch", "operator-ch-bell-basis", "operator-i33",
                "operator-i33-bell-basis", "sweep-ch-sampled-101", "eigencurves-i33-101"]


@pytest.mark.parametrize("name", CATALOG_RUNS)
def test_catalog_layouts_are_corpus_inputs(name):
    # a command on the catalog's layout files gives the entry's bytes only if
    # they read back as its literal inputs, coefficients in the same order,
    # since the operator adds its terms in that order
    argv = next(e["argv"] for e in CORPUS["entries"] if e["name"] == name)
    structure_file, ineq_file = (argv[argv.index(flag) + 1] for flag in ("--structure", "--ineq"))
    layout = structure_file.removesuffix(".json")
    assert ineq_file == f"{layout}_ineq.json"
    structure = getattr(catalog, f"{layout}_structure")()
    ineq = getattr(catalog, f"{layout}_inequality")()
    inputs = CORPUS["inputs"]
    assert EventStructure.from_json(inputs[structure_file]) == structure
    corpus_ineq = Inequality.from_json(inputs[ineq_file])
    assert corpus_ineq == ineq
    assert list(corpus_ineq.coeffs) == list(ineq.coeffs)


# the lines of cli.py that no entry can run in this process, by their source
# text; test_cli.py's TestFailedWrite runs both in subprocesses
UNREACHED = {
    # Python started with fd 1 closed, so sys.stdout is None
    "raise OSError(errno.EBADF, os.strerror(errno.EBADF))",
    # a write to the real stdout failed: /dev/full, a closed pipe
    "sys.stdout = None",
}


def test_entries_reach_every_line_of_cli(tmp_path, monkeypatch):
    # every line in the functions of cli.py; the module's own lines run at import
    lines = set()

    def walk(code):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                lines.update(line for _, _, line in const.co_lines() if line)
                walk(const)

    source = pathlib.Path(cli.__file__).read_text()
    walk(compile(source, cli.__file__, "exec"))
    reached = set()

    def trace(frame, event, arg):
        if frame.f_code.co_filename != cli.__file__:
            return None
        reached.add(frame.f_lineno)
        return trace

    for k, entry in enumerate(CORPUS["entries"]):
        (tmp_path / str(k)).mkdir()
        monkeypatch.chdir(tmp_path / str(k))
        old = sys.gettrace()
        sys.settrace(trace)
        try:
            regen.run(entry["argv"], CORPUS["inputs"])
        finally:
            sys.settrace(old)
    unreached = sorted((source.splitlines()[n - 1].strip(), n) for n in lines - reached)
    # an allowed line that an entry now runs leaves the list
    assert [text for text, _ in unreached] == sorted(UNREACHED), unreached
