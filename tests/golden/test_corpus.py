"""Every golden-corpus command gives the exit code and the bytes it pins.

The corpus and the script that rewrites it are ``corpus.json`` and
``regen.py`` beside this file.  Each entry runs once in a session, traced
line by line, and the last test checks what those runs reached: every line
of each package function that an entry calls, but for a reasoned allowlist.
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
from bellbounds import catalog, cli, sampling
from bellbounds.polytope import EventStructure, Inequality

CORPUS = regen.load()
# the package's source files
SRC = {str(path) for path in pathlib.Path(cli.__file__).parent.glob("*.py")}


class Trace:
    """The runs of entries in one session, as (entry name, the CPU count the
    sweep sees or None for the machine's), and the lines of the package that
    they reached and the code objects that they called."""

    def __init__(self):
        self.runs, self.reached, self.called = set(), set(), set()

    def call(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename not in SRC:
            return None
        self.called.add(code)
        self.reached.add((code.co_filename, frame.f_lineno))
        return self.line

    def line(self, frame, event, arg):
        self.reached.add((frame.f_code.co_filename, frame.f_lineno))
        return self.line

    def run(self, entry, monkeypatch, cpus=None):
        """regen.run of ``entry`` in the working directory, traced, the
        sweep's pool threads too, on ``cpus`` CPUs unless None."""
        if cpus is not None:
            monkeypatch.setattr(sampling, "_usable_cpus", lambda: cpus)
        old, old_threads = sys.gettrace(), threading.gettrace()
        sys.settrace(self.call)
        threading.settrace(self.call)
        try:
            return regen.run(entry["argv"], CORPUS["inputs"])
        finally:
            sys.settrace(old)
            threading.settrace(old_threads)
            self.runs.add((entry["name"], cpus))


@pytest.fixture(scope="session")
def trace():
    return Trace()


@pytest.mark.parametrize("entry", CORPUS["entries"], ids=[e["name"] for e in CORPUS["entries"]])
def test_entry(entry, tmp_path, monkeypatch, trace, cpus=None):
    monkeypatch.chdir(tmp_path)
    want = {k: v for k, v in entry.items() if k not in ("name", "argv")}
    assert trace.run(entry, monkeypatch, cpus) == want


SAMPLED = [e for e in CORPUS["entries"] if "--samples" in e["argv"] and e["exit"] == 0]
CPUS = [1, 3]


@pytest.mark.parametrize("cpus", CPUS)
@pytest.mark.parametrize("entry", SAMPLED, ids=[e["name"] for e in SAMPLED])
def test_sampled_entry_on_any_thread_count(entry, cpus, tmp_path, monkeypatch, trace):
    # the command picks its thread count from the CPUs it may use, so the
    # entry alone cannot show that the count leaves its bytes alone
    test_entry(entry, tmp_path, monkeypatch, trace, cpus)


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


# the lines that no entry runs in this process, of the package functions
# that entries call, by function and source text, each kept for a reason
UNREACHED = [
    # test_cli.py's TestFailedWrite and TestInterrupt run these in processes
    # of their own.  Python started with fd 1 closed, so sys.stdout is None
    ("cli._outputs", "raise OSError(errno.EBADF, os.strerror(errno.EBADF))"),
    # a write to the real stdout failed: /dev/full, a closed pipe
    ("cli._outputs", "sys.stdout = None"),
    # the stop signals' handler, and the end of a run that a signal stops
    ("cli.main", "raise KeyboardInterrupt(signum)"),
    ("cli.main", "except KeyboardInterrupt as exc:"),
    ("cli.main", '_report("interrupted")'),
    ("cli.main", "return 128 + (exc.args[0] if exc.args else signal.SIGINT)"),
    # the platform has no os.sched_getaffinity (macOS, Windows)
    ("sampling._usable_cpus", "except AttributeError:  # no affinity call on this platform"),
    ("sampling._usable_cpus", "return os.cpu_count() or 1"),
    # a sampled sweep's thread fails, or the main thread is interrupted: the
    # others stop at their next point (test_sampling.py's TestPooledDraws)
    *2 * [("sampling._sampled_extremes", "except BaseException:"),
          ("sampling._sampled_extremes", "collections.deque(points, maxlen=0)"),
          ("sampling._sampled_extremes", "raise")],
    # LAPACK reports no convergence, which no known input makes it do
    ("kernels.eigh", "except np.linalg.LinAlgError as exc:"),
    ("kernels.eigh", 'raise NumericError(f"Hermitian eigensolver failed: {exc}") from exc'),
    ("spectra.o33_block_eigenvalues", "except np.linalg.LinAlgError as exc:"),
    ("spectra.o33_block_eigenvalues",
     'raise NumericError(f"3x3 block eigensolve failed: {exc}") from exc'),
    # every caller of the stacked solves checks its matrices first; LAPACK
    # gives a NaN spectrum for a NaN matrix without an error, so the solves
    # refuse one themselves rather than trust each caller
    ("qops._stack_units", 'raise NumericError("matrix has non-finite entries")'),
    # the tests' facet-definition oracle ranks an empty tight set
    ("polytope.affine_rank", "return -1"),
    # the preconditions of _dd_rays' int64 bound for any vertex list, which
    # the truth tables that commands pass always meet, and the step that a
    # repeated vertex takes (test_polytope.py's TestHullFacets)
    ("polytope.hull_forms", 'raise InputError("empty vertex list")'),
    ("polytope.hull_forms", 'raise InputError("vertices of mixed dimension")'),
    ("polytope.hull_forms", 'raise InputError("vertex entries must be 0 or 1, as int")'),
    ("polytope.hull_forms", "raise InputError("),
    ("polytope.hull_forms", 'f"vertices have length {dim}, but the structure has dimension "'),
    ("polytope.hull_forms", 'f"{structure.dimension}"'),
    ("polytope._dd_rays", "raise InputError("),
    ("polytope._dd_rays",
     '"vertex set is not full-dimensional; facet enumeration requires "'),
    ("polytope._dd_rays", "for i in zer:"),
    ("polytope._dd_rays", "masks[i] |= bit"),
    ("polytope._dd_rays", "continue"),
]


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
                out[f"{path.stem}.{name}"] = inspect.unwrap(obj)  # not a decorator's wrapper
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


def test_entries_reach_every_line_of_cli(tmp_path, monkeypatch, trace):
    # every line of each package function that an entry calls runs, but for
    # UNREACHED, and each function that no entry calls is on UNCALLED.  The
    # runs that no test has made yet in this session come first, so that the
    # check holds on its own too, and on a machine of any CPU count
    runs = [(entry, None) for entry in CORPUS["entries"]] + [(e, c) for e in SAMPLED for c in CPUS]
    for k, (entry, cpus) in enumerate(runs):
        if (entry["name"], cpus) not in trace.runs:
            (tmp_path / str(k)).mkdir()
            monkeypatch.chdir(tmp_path / str(k))
            with monkeypatch.context() as patch:
                trace.run(entry, patch, cpus)
    functions = package_functions()
    # an allowed function that an entry now calls leaves the list
    uncalled = sorted(name for name, fn in functions.items() if fn.__code__ not in trace.called)
    assert uncalled == sorted(UNCALLED)
    lines = {(name, c.co_filename, line) for name, fn in functions.items()
             if fn.__code__ in trace.called
             for c in nested(fn.__code__) for _, _, line in c.co_lines() if line}
    unreached = sorted((name, linecache.getline(f, n).strip())
                       for name, f, n in lines if (f, n) not in trace.reached)
    # and so does an allowed line that an entry now runs
    assert unreached == sorted(UNREACHED)
