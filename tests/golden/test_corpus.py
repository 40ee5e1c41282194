"""Every golden-corpus command gives the exit code and the bytes it pins.

The corpus and the script that rewrites it are ``corpus.json`` and
``regen.py`` beside this file.
"""

import importlib
import inspect
import linecache
import pathlib
import sys
import threading
import types

import pytest

import regen
from bellbounds import catalog, cli, polytope, sampling
from bellbounds.polytope import EventStructure, Inequality
from bellbounds.qops import BellOperator
from bellbounds.states import PureState

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
# text; test_cli.py's TestFailedWrite and TestInterrupt run them in subprocesses
UNREACHED = {
    # Python started with fd 1 closed, so sys.stdout is None
    "raise OSError(errno.EBADF, os.strerror(errno.EBADF))",
    # a write to the real stdout failed: /dev/full, a closed pipe
    "sys.stdout = None",
    # SIGTERM's handler, and the end of a run that SIGINT or SIGTERM stops
    "raise KeyboardInterrupt(signum)",
    "except KeyboardInterrupt as exc:",
    '_report("interrupted")',
    "return 128 + (exc.args[0] if exc.args else signal.SIGINT)",
}

# the readers of the CLI's input files, every line of which an entry runs too
READERS = [EventStructure.__post_init__, EventStructure.from_json, Inequality.__post_init__,
           Inequality.from_json, Inequality.check_keys, polytope._read_fraction,
           BellOperator.from_json, PureState.__post_init__, PureState.from_json]


# the top-level functions and methods of the package that no entry calls,
# each kept in src for a reason other than a command
UNCALLED = {
    # perfbench/tracer.py wraps these by name, and its traced smoke run
    # fails without them
    "polytope.hull_facets",
    "sampling.sample_params",
    "spectra.cardano_eigenvalues",
    "spectra.o33_block_decompose",
    # perfbench/workloads.py writes its input files from these layouts
    "catalog.ch_structure",
    "catalog.ch_inequality",
    "catalog.i33_structure",
    "catalog.i33_inequality",
    # they write the formats that the input-file readers take
    "polytope.EventStructure.to_json",
    "states.PureState.to_json",
    # the facet classes under the layout's symmetry group will use it
    "polytope.Inequality.canonical_key",
    # they run at import, to build module constants
    "qops._bell_gather",
    "kernels.assemble_root_matrices",
}


def package_functions():
    """Each top-level function and method (property getters, class and
    static methods included) defined in a module of the package, by name:
    module, class if any, function.  Methods that a decorator generates,
    such as a dataclass's __init__, have no source file and are left out."""
    out = {}
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("[!_]*.py")):
        module = importlib.import_module(f"bellbounds.{path.stem}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                out[f"{path.stem}.{name}"] = obj
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", getattr(member, "fget", member))
                    if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                        out[f"{path.stem}.{name}.{attr}"] = fn
    return out


def nested(code):
    """``code`` and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from nested(const)


def test_entries_reach_every_line_of_cli(tmp_path, monkeypatch):
    # every line in the functions of cli.py, whose own lines run at import,
    # and in the readers
    module = compile(pathlib.Path(cli.__file__).read_text(), cli.__file__, "exec")
    readers = [c for reader in READERS for c in nested(reader.__code__)]
    codes = [*nested(module)][1:] + readers
    lines = {(c.co_filename, line) for c in codes for _, _, line in c.co_lines() if line}
    reader_ids = {id(c) for c in readers}
    reached, called = set(), set()

    def trace(frame, event, arg):
        code = frame.f_code
        if event == "call":
            called.add(code)
        if code.co_filename != cli.__file__ and id(code) not in reader_ids:
            return None
        reached.add((code.co_filename, frame.f_lineno))
        return trace

    for k, entry in enumerate(CORPUS["entries"]):
        (tmp_path / str(k)).mkdir()
        monkeypatch.chdir(tmp_path / str(k))
        old, old_threads = sys.gettrace(), threading.gettrace()
        # the sweep's pool threads are traced too
        sys.settrace(trace)
        threading.settrace(trace)
        try:
            regen.run(entry["argv"], CORPUS["inputs"])
        finally:
            sys.settrace(old)
            threading.settrace(old_threads)
    unreached = sorted((linecache.getline(f, n).strip(), f, n) for f, n in lines - reached)
    # an allowed line that an entry now runs leaves the list
    assert [text for text, _, _ in unreached] == sorted(UNREACHED), unreached
    # and so does an allowed function that an entry now calls
    uncalled = sorted(name for name, fn in package_functions().items() if fn.__code__ not in called)
    assert uncalled == sorted(UNCALLED)
