import concurrent.futures
import contextlib
import errno
import json
import math
import os
import pathlib
import signal
import stat
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

import reference
from bellbounds import catalog, cli, polytope, sampling
from bellbounds.cli import (
    main,
    parse_affine,
    parse_angles,
    parse_grid,
    parse_scalar,
    parse_schedule,
)
from bellbounds.errors import BudgetError, InputError, NumericError

SRC = pathlib.Path(cli.__file__).parents[1]


@pytest.fixture()
def ch_files(tmp_path):
    s = tmp_path / "structure.json"
    s.write_text(json.dumps(catalog.ch_structure().to_json()))
    i = tmp_path / "ineq.json"
    i.write_text(json.dumps(catalog.ch_inequality().to_json()))
    return str(s), str(i)


class TestParseScalar:
    @pytest.mark.parametrize(
        "tok,val",
        [
            ("0", 0.0),
            ("1.5", 1.5),
            ("pi", math.pi),
            ("-pi", -math.pi),
            ("2pi", 2 * math.pi),
            ("pi/4", math.pi / 4),
            ("3pi/4", 3 * math.pi / 4),
            ("1/8", 0.125),
            ("1/2/3", 1 / 6),
            ("pi/2/2", math.pi / 4),
        ],
    )
    def test_values(self, tok, val):
        assert parse_scalar(tok) == pytest.approx(val, abs=1e-15)

    def test_left_fold_is_exact(self):
        # '/' folds left to right, and 'pi' binds to its own factor
        assert parse_scalar("1/2/3") == (1 / 2) / 3
        assert parse_scalar("1/2pi") == 1 / (2 * math.pi)

    def test_long_division_chain(self, ch_files, capsys):
        # 3000 divisions are folded in a loop, not by recursion
        tok = "1" + "/1" * 3000
        assert parse_scalar(tok) == 1.0
        s, i = ch_files
        rc = main(["bound", "--structure", s, "--ineq", i, "--angles", f"1={tok},2=0,3=1,4=2"])
        assert rc == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_rejects_garbage(self):
        for bad in ("", "x", "pi/0", "1..2", "nan", "inf", "-inf", "1e400", "1e308pi"):
            with pytest.raises(InputError):
                parse_scalar(bad)


class TestParseAffine:
    @pytest.mark.parametrize(
        "expr,mc",
        [
            ("t", (1.0, 0.0)),
            ("2t", (2.0, 0.0)),
            ("-t", (-1.0, 0.0)),
            ("pi/4", (0.0, math.pi / 4)),
            ("0.5t+pi/4", (0.5, math.pi / 4)),
            ("3t-pi", (3.0, -math.pi)),
            ("0", (0.0, 0.0)),
            # a sign after 'e' or 'E' belongs to the exponent, not a new term
            ("1e-3t", (1e-3, 0.0)),
            ("2.5e+1", (0.0, 25.0)),
            ("t+1e-3", (1.0, 1e-3)),
            ("-2E-1*t-1e+0", (-0.2, -1.0)),
        ],
    )
    def test_values(self, expr, mc):
        m, c = parse_affine(expr)
        assert (m, c) == pytest.approx(mc, abs=1e-15)

    def test_rejects_garbage(self):
        for bad in ("", "+", "t+", "1e+", "1e-t", "t+e", "1e--3"):
            with pytest.raises(InputError):
                parse_affine(bad)


class TestParseAngles:
    def test_basic(self):
        got = parse_angles("1=0,2=pi/2")
        assert got == {1: 0.0, 2: pytest.approx(math.pi / 2)}

    def test_rejects(self):
        with pytest.raises(InputError):
            parse_angles("1:0")
        with pytest.raises(InputError):
            parse_angles("x=0")

    def test_rejects_repeated_index(self):
        with pytest.raises(InputError, match="event 1"):
            parse_angles("1=0,1=5,2=pi/2")


class TestParseSchedule:
    def test_two_setting_standard(self):
        sched = parse_schedule("1=0,2=2t,3=t,4=3t")
        want = reference.sweep_schedule_22(0.7)
        got = sched(0.7)
        assert set(got) == set(want)
        for k in want:
            assert got[k] == pytest.approx(want[k], abs=1e-15)

    def test_rejects_repeated_index(self):
        with pytest.raises(InputError, match="event 1"):
            parse_schedule("1=0,2=2t,3=t,4=3t,1=t")


class TestParseGrid:
    def test_linspace(self):
        assert parse_grid("0:1:5") == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_pi_endpoints(self):
        g = parse_grid("0:pi:3")
        assert g[-1] == pytest.approx(math.pi)

    def test_rejects(self):
        for bad in ("0:1", "0:1:0", "0:1:x"):
            with pytest.raises(InputError):
                parse_grid(bad)


class TestEarlyOutputCheck:
    """Every command that takes ``--out`` checks it before its work, and a
    run that fails later leaves no new file and truncates no old one."""

    ANGLES = ["--angles", "1=0,2=pi/2,3=pi/4,4=3pi/4"]
    SWEEP = ["--schedule", "1=0,2=2t,3=t,4=3t", "--grid", "0:pi:3", "--samples", "10"]

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    @pytest.mark.parametrize("command", ["polytope", "operator", "spectrum", "sweep"])
    def test_checked_before_work(self, command, ch_files, tmp_path, monkeypatch, capsys):
        s, i = ch_files
        build = ["operator", "build", "--structure", s, "--ineq", i, *self.ANGLES]
        op = tmp_path / "op.json"
        assert main([*build, "--out", str(op)]) == 0
        # each command with the function its work starts in
        module, work, argv = {
            "polytope": (polytope, "_dd_rays", ["polytope", "facets", "--structure", s]),
            "operator": (cli, "bell_operator", build),
            "spectrum": (cli, "eigen", ["spectrum", "--operator", str(op)]),
            "sweep": (cli, "sweep", ["sweep", "--structure", s, "--ineq", i, *self.SWEEP]),
        }[command]
        monkeypatch.setattr(module, work, self.refuse)
        out = tmp_path / "missing" / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    @pytest.mark.parametrize("error,code", [(BudgetError, 3), (NumericError, 4)])
    def test_late_failure_polytope(self, ch_files, tmp_path, monkeypatch, error, code):
        def fail(vertices):
            raise error("late")

        monkeypatch.setattr(polytope, "_dd_rays", fail)
        s, _ = ch_files
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        old.write_text("kept")
        for out in (new, old):
            assert main(["polytope", "facets", "--structure", s, "--out", str(out)]) == code
        assert not new.exists()
        assert old.read_text() == "kept"

    @pytest.mark.parametrize("error,code", [(BudgetError, 3), (NumericError, 4)])
    def test_late_failure_sweep(self, ch_files, tmp_path, monkeypatch, error, code):
        def fail(*args):
            raise error("late")

        monkeypatch.setattr(cli, "sweep", fail)
        s, i = ch_files
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_text("kept")
        for out in (new, old):
            argv = ["sweep", "--structure", s, "--ineq", i, *self.SWEEP, "--out", str(out)]
            assert main(argv) == code
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ineq.json", "old.csv", "structure.json"]
        assert old.read_text() == "kept"


DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs Linux's /dev/full")


class _FullAfterFirstChunk:
    """A text file that takes one chunk, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh
        self.chunks = 0

    def write(self, text):
        if self.chunks:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.chunks += 1
        self.fh.write(text)
        self.fh.flush()  # the chunk is on disk when the next one fails

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestFailedWrite:
    """A write that fails, on ``--out`` or on stdout, exits 2 with one
    stderr line, and leaves no file that the run created or truncated."""

    STATE = {"amplitudes": [[0, 0], [0.5**0.5, 0], [-(0.5**0.5), 0], [0, 0]]}

    @DEV_FULL
    @pytest.mark.parametrize("old_manifest", [False, True])
    def test_sweep_through_link_to_dev_full(self, ch_files, tmp_path, capsys, old_manifest):
        # a link, not --out /dev/full, which would reserve a manifest in /dev
        s, i = ch_files
        out = tmp_path / "out.csv"
        out.symlink_to("/dev/full")
        manifest = tmp_path / "out.csv.manifest.json"
        if old_manifest:
            manifest.write_text("kept")
        argv = ["sweep", "--structure", s, "--ineq", i, *TestEarlyOutputCheck.SWEEP, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: [Errno 28] No space left on device\n"
        # the CSV write failed, so the old manifest was never opened for writing
        assert (manifest.read_text() == "kept") if old_manifest else not manifest.exists()
        assert os.readlink(out) == "/dev/full"
        assert stat.S_ISCHR(os.stat("/dev/full").st_mode)

    def test_sweep_through_link_to_regular_file(self, ch_files, tmp_path):
        # the failed run removes the file behind the link, and keeps the link
        s, i = ch_files
        target, out = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old")
        out.symlink_to(target)
        argv = ["sweep", "--structure", s, "--ineq", i, *TestEarlyOutputCheck.SWEEP, "--out", str(out)]
        proc = self.run_cli(argv, preexec_fn=lambda: os.close(1))
        assert (proc.returncode, proc.stderr) == (2, "error: cannot write stdout: [Errno 9] Bad file descriptor\n")
        assert os.readlink(out) == str(target)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ineq.json", "link.csv", "structure.json"]

    def test_refusal_through_dangling_link(self, ch_files, tmp_path):
        # the check of --out creates the file the link names; the refusal
        # that follows removes it, and keeps the link
        s, i = ch_files
        out = tmp_path / "link.csv"
        out.symlink_to(tmp_path / "target.csv")
        argv = ["sweep", "--structure", s, "--ineq", i, *TestEarlyOutputCheck.SWEEP, "--out", str(out)]
        assert main([*argv, "--grid", "0:pi:0"]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ineq.json", "link.csv", "structure.json"]

    @pytest.mark.parametrize("old", [False, True], ids=["new", "truncated"])
    @pytest.mark.parametrize("command", ["vertices", "sweep"])
    def test_fails_after_first_chunk(self, ch_files, tmp_path, monkeypatch, capsys, command, old):
        real_open, opened = open, []

        def open_full(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            if "w" not in mode:
                return fh
            opened.append(path)
            return _FullAfterFirstChunk(fh)

        monkeypatch.setattr(cli, "open", open_full, raising=False)
        s, i = ch_files
        out = tmp_path / "out"
        if old:
            out.write_text("old")
        argv = {
            "vertices": ["polytope", "vertices", "--structure", s],
            # the CSV goes in one chunk, the manifest fails after its first
            "sweep": ["sweep", "--structure", s, "--ineq", i, *TestEarlyOutputCheck.SWEEP],
        }[command]
        assert main([*argv, "--out", str(out)]) == 2
        assert opened == ([str(out), f"{out}.manifest.json"] if command == "sweep" else [str(out)])
        err = f"error: cannot write {opened[-1]}: [Errno 28] No space left on device\n"
        assert capsys.readouterr().err == err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ineq.json", "structure.json"]

    @DEV_FULL
    @pytest.mark.parametrize("stdout", ["dev-full", "closed", "broken-pipe"])
    @pytest.mark.parametrize("command", ["vertices", "bound", "state", "sweep"])
    def test_stdout_in_a_process(self, ch_files, tmp_path, command, stdout):
        # what a run in this process cannot show: Python's own stdout, and
        # its flush at exit; buffered, as it is by default
        s, i = ch_files
        state = tmp_path / "state.json"
        state.write_text(json.dumps(self.STATE))
        args = {
            "vertices": ["polytope", "vertices", "--structure", s],
            "bound": ["bound", "--structure", s, "--ineq", i, *TestEarlyOutputCheck.ANGLES],
            "state": ["state", "analyze", "--state", str(state)],
            "sweep": ["sweep", "--structure", s, "--ineq", i, *TestEarlyOutputCheck.SWEEP,
                      "--out", str(tmp_path / "out.csv")],
        }[command]
        with contextlib.ExitStack() as stack:
            if stdout == "dev-full":
                kwargs = {"stdout": stack.enter_context(open("/dev/full", "w"))}
            elif stdout == "closed":
                kwargs = {"preexec_fn": lambda: os.close(1)}
            else:
                r, w = os.pipe()
                os.close(r)  # the reader is gone before the run starts
                stack.callback(os.close, w)
                kwargs = {"stdout": w}
            proc = self.run_cli(args, **kwargs)
        reason = {"dev-full": "[Errno 28] No space left on device",
                  "closed": "[Errno 9] Bad file descriptor",
                  "broken-pipe": "[Errno 32] Broken pipe"}[stdout]
        assert (proc.returncode, proc.stderr) == (2, f"error: cannot write stdout: {reason}\n")
        # the sweep wrote its CSV and manifest before the stdout line failed
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ineq.json", "state.json", "structure.json"]

    def test_refusal_with_stderr_closed(self, ch_files):
        # with no stderr the refusal is not printed, and never on stdout
        s, i = ch_files
        argv = ["bound", "--structure", s, "--ineq", i, "--angles", "1=x"]
        proc = self.run_cli(argv, stdout=subprocess.PIPE, preexec_fn=lambda: os.close(2))
        assert (proc.returncode, proc.stdout) == (2, "")

    @staticmethod
    def run_cli(args, **kwargs):
        """``python -m bellbounds.cli args`` in a new process, its stderr
        captured unless ``kwargs`` closes it."""
        argv, env = cli_command(args)
        return subprocess.run(argv, stderr=subprocess.PIPE, text=True, env=env, timeout=60, **kwargs)


def cli_command(args):
    """The argv and environment of ``python -m bellbounds.cli args`` run from
    this checkout, its stdout buffered, as it is by default."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return [sys.executable, "-m", "bellbounds.cli", *args], env


class TestInterrupt:
    """SIGINT, SIGHUP, SIGQUIT and SIGTERM end a long command within 2 s
    with exit 128 + the signal's number and one stderr line, and leave no
    file that the run created; an older --out keeps its bytes."""

    LONG = {
        # about 30 s of draws: 1001 points x 300 000 samples
        "sweep": ("ch", ["--schedule", "1=0,2=2t,3=t,4=3t", "--grid", "0:pi:1001",
                         "--samples", "300000"]),
        # about 10 s of per-point builds and block splits: 100 001 points
        "eigencurves": ("i33", ["--schedule", "1=0,2=t,3=2t,4=0,5=t,6=2t",
                                "--grid", "0:pi:100001", "--eigencurves"]),
    }

    # SIGHUP and SIGQUIT take SIGTERM's path, so one command checks them
    RUNS = [("sweep", signum) for signum in ("SIGINT", "SIGTERM", "SIGHUP", "SIGQUIT")] + [
        ("eigencurves", signum) for signum in ("SIGINT", "SIGTERM")]

    @pytest.mark.parametrize("old", [False, True], ids=["new", "old-out"])
    @pytest.mark.parametrize("command,name", RUNS, ids=[f"{c}-{n}" for c, n in RUNS])
    def test_ends_cleanly(self, tmp_path, command, name, old):
        signum = getattr(signal, name)
        layout, args = self.LONG[command]
        s, i, out = tmp_path / "structure.json", tmp_path / "ineq.json", tmp_path / "out.csv"
        s.write_text(json.dumps(getattr(catalog, f"{layout}_structure")().to_json()))
        i.write_text(json.dumps(getattr(catalog, f"{layout}_inequality")().to_json()))
        if old:
            out.write_text("old")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        argv, env = cli_command(["sweep", "--structure", str(s), "--ineq", str(i), *args, "--out", str(out)])
        # the signal's default action, even where this process was started
        # with it ignored: Python then turns SIGINT into KeyboardInterrupt,
        # and the command sets its handler for the others
        with subprocess.Popen(argv, env=env, stderr=subprocess.PIPE, text=True,
                              preexec_fn=lambda: signal.signal(signum, signal.SIG_DFL)) as proc:
            try:
                # the manifest is reserved after --out, both before the work
                deadline = time.monotonic() + 60
                while not (tmp_path / "out.csv.manifest.json").exists():
                    assert proc.poll() is None and time.monotonic() < deadline
                    time.sleep(0.01)
                # into the work: the sweep's draws on every thread, or the
                # eigencurves' per-point loop
                time.sleep(0.5)
                assert proc.poll() is None
                proc.send_signal(signum)
                start = time.monotonic()
                _, err = proc.communicate(timeout=30)
                elapsed = time.monotonic() - start
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
        assert (proc.returncode, err) == (128 + signum, "interrupted\n")
        assert elapsed < 2.0
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_handler_put_back_and_set_on_the_main_thread_only(self, ch_files, capsys, monkeypatch):
        s, i = ch_files
        argv = ["bound", "--structure", s, "--ineq", i, *TestEarlyOutputCheck.ANGLES]
        signums = [signal.SIGTERM, signal.SIGHUP, signal.SIGQUIT]
        during = []
        bound = cli._cmd_bound

        def spy(args, write):
            during.append([signal.getsignal(s) for s in signums])
            return bound(args, write)

        monkeypatch.setattr(cli, "_cmd_bound", spy)
        # as under nohup, SIGHUP is ignored, and stays so
        hup = signal.signal(signal.SIGHUP, signal.SIG_IGN)
        try:
            before = [signal.getsignal(s) for s in signums]
            assert main(argv) == 0
            assert [signal.getsignal(s) for s in signums] == before
            # another thread may not set a handler, and main sets none there
            with concurrent.futures.ThreadPoolExecutor(1) as pool:
                assert pool.submit(main, argv).result() == 0
            assert [signal.getsignal(s) for s in signums] == before
        finally:
            signal.signal(signal.SIGHUP, hup)
        (term, ignored, quit_), on_thread = during
        assert ignored is signal.SIG_IGN and on_thread == before
        assert term is quit_ and term not in before and callable(term)


class TestVertexBudget:
    """``polytope vertices`` and ``verify`` refuse a vertex list above
    ``MAX_VERTEX_ENTRIES`` entries before listing any vertex."""

    @staticmethod
    def layout(n_joints):
        # 2^16 vertices of dimension 16 + n_joints: 48 joints reach the budget
        left, right = range(1, 9), range(9, 17)
        joints = [[i, j] for i in left for j in right][:n_joints]
        return {"n_single": 16, "sides": [list(left), list(right)], "joints": joints}

    def test_edge_is_the_budget(self):
        assert 2**16 * (16 + 48) == polytope.MAX_VERTEX_ENTRIES

    @pytest.mark.parametrize("action", ["vertices", "verify"])
    def test_just_over_budget(self, tmp_path, monkeypatch, capsys, action):
        def refuse(structure):
            raise AssertionError("vertices enumerated before the vertex budget check")

        monkeypatch.setattr(cli, "enumerate_vertices", refuse)
        s, i = tmp_path / "s.json", tmp_path / "i.json"
        s.write_text(json.dumps(self.layout(49)))
        i.write_text(json.dumps({"coeffs": {"1": 1}, "lower": 0}))
        out = tmp_path / "out.json"
        argv = ["polytope", action, "--structure", str(s), "--ineq", str(i), "--out", str(out)]
        assert main(argv) == 3
        assert "vertex list budget" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("layout", [catalog.ch_structure, catalog.i33_structure])
    def test_catalog_layouts_well_inside(self, layout):
        structure = layout()
        assert 2**structure.n_single * structure.dimension * 1000 < polytope.MAX_VERTEX_ENTRIES


class TestPolytopeCommand:
    @pytest.mark.parametrize(
        "ineq,err",
        [
            (None, "verify needs --ineq"),
            ("missing.json", "cannot read"),
            ("alien.json", "term key (1, 9) not present in structure"),
        ],
    )
    def test_verify_reads_ineq_before_enumeration(self, ch_files, tmp_path, monkeypatch, capsys, ineq, err):
        def refuse(structure):
            raise AssertionError("vertices enumerated before --ineq was checked")

        monkeypatch.setattr(cli, "enumerate_vertices", refuse)
        (tmp_path / "alien.json").write_text(json.dumps({"coeffs": {"1,9": 1}, "upper": 0}))
        argv = ["polytope", "verify", "--structure", ch_files[0]]
        if ineq:
            argv += ["--ineq", str(tmp_path / ineq)]
        assert main(argv) == 2
        assert err in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data",
        [b'\xff\xfe{"n_single": 2}', b"[" * 100000 + b"]" * 100000],
        ids=["not-utf8", "nested-too-deep"],
    )
    def test_unreadable_json_is_input_error(self, tmp_path, data):
        s = tmp_path / "structure.json"
        s.write_bytes(data)
        assert main(["polytope", "vertices", "--structure", str(s)]) == 2

    def test_joints_in_either_order(self, ch_files, tmp_path, capsys):
        # CH with every joint written right event first: facets, then each
        # facet verified, then bound, all as for CH itself
        s, i = ch_files
        doc = {**catalog.ch_structure().to_json(), "joints": [[3, 1], [4, 1], [3, 2], [4, 2]]}
        rev = tmp_path / "reversed.json"
        rev.write_text(json.dumps(doc))
        outs = {}
        for name, path in (("ch", s), ("reversed", str(rev))):
            out = tmp_path / f"{name}.facets.json"
            assert main(["polytope", "facets", "--structure", path, "--out", str(out)]) == 0
            outs[name] = out.read_bytes()
        assert outs["reversed"] == outs["ch"]
        facet = tmp_path / "facet.json"
        for doc in json.loads(outs["reversed"])["facets"]:
            facet.write_text(json.dumps(doc))
            assert main(["polytope", "verify", "--structure", str(rev), "--ineq", str(facet)]) == 0
            check = json.loads(capsys.readouterr().out)
            assert check["valid"] and check["is_facet"]
        angles = ["--angles", "1=0,2=pi/2,3=pi/4,4=3pi/4"]
        assert main(["bound", "--structure", s, "--ineq", i, *angles]) == 0
        want = capsys.readouterr().out
        assert main(["bound", "--structure", str(rev), "--ineq", i, *angles]) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize(
        "doc",
        [
            # dim 20 and 2^20 vertices, a quarter of a GB to build
            {"n_single": 20, "sides": [list(range(1, 11)), list(range(11, 21))], "joints": []},
            # dim 8 but 256 vertices
            {"n_single": 8, "sides": [[1, 2, 3, 4], [5, 6, 7, 8]], "joints": []},
        ],
        ids=["dimension", "vertices"],
    )
    def test_facets_budget_before_enumeration(self, tmp_path, monkeypatch, doc):
        def refuse(structure):
            raise AssertionError("vertices enumerated before the hull budget check")

        monkeypatch.setattr(cli, "enumerate_vertices", refuse)
        s = tmp_path / "s.json"
        s.write_text(json.dumps(doc))
        assert main(["polytope", "facets", "--structure", str(s)]) == 3


class TestOperatorAndSpectrum:
    def test_build_and_spectrum(self, ch_files, tmp_path, capsys):
        s, i = ch_files
        op = tmp_path / "op.json"
        rc = main(
            [
                "operator",
                "build",
                "--structure", s,
                "--ineq", i,
                "--angles", "1=0,2=pi/2,3=pi/4,4=3pi/4",
                "--out", str(op),
            ]
        )
        assert rc == 0
        assert main(["spectrum", "--operator", str(op)]) == 0
        lines = capsys.readouterr().out.splitlines()
        vals = [float(ln.split()[1]) for ln in lines[1:5]]
        assert vals[0] == pytest.approx(-(math.sqrt(2) + 1) / 2, abs=1e-10)
        assert vals[-1] == pytest.approx((math.sqrt(2) - 1) / 2, abs=1e-10)

    def test_eigenvalue_gap_beyond_float_range(self, tmp_path, capsys):
        # the gap between -1e308 and 1e308 overflows; it is not degenerate
        op = tmp_path / "op.json"
        op.write_text('{"dim": 2, "entries": [[[0, 0], [0, 1e308]], [[0, -1e308], [0, 0]]]}')
        assert main(["spectrum", "--operator", str(op)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [float(ln.split()[1]) for ln in lines[1:3]] == [-1e308, 1e308]
        assert "degenerate" not in lines[-1]

    def test_smallest_subnormal_operator(self, tmp_path, capsys):
        # its unit is 5e-324 itself: 1 / unit overflows, so the matrix in its
        # units is taken on the float view
        op = tmp_path / "op.json"
        op.write_text('{"dim": 1, "entries": [[[5e-324, 0]]]}')
        assert main(["spectrum", "--operator", str(op)]) == 0
        assert capsys.readouterr().out.splitlines()[1].split() == ["0", "4.94065645841e-324"]


class TestBoundCommand:
    def test_ten_by_ten_lists_no_vertex(self, tmp_path, monkeypatch, capsys):
        # the classical range sums over one side's 2^10 assignments
        def refuse(structure):
            raise AssertionError("bound listed the vertices")

        monkeypatch.setattr(cli, "enumerate_vertices", refuse)
        monkeypatch.setattr(polytope, "enumerate_vertices", refuse)
        left, right = range(1, 11), range(11, 21)
        s, i = tmp_path / "s.json", tmp_path / "i.json"
        s.write_text(json.dumps(
            {"n_single": 20, "sides": [list(left), list(right)],
             "joints": [[a, b] for a in left for b in right]}
        ))
        # the CH form on settings 1, 2 | 11, 12
        i.write_text(json.dumps({"coeffs": {"1,11": 1, "1,12": 1, "2,11": 1, "2,12": -1,
                                            "1": -1, "11": -1}, "upper": 0}))
        angles = ",".join(f"{e}={e}" for e in range(1, 21))
        assert main(["bound", "--structure", str(s), "--ineq", str(i), "--angles", angles]) == 0
        assert "classical range   [-1, 0]" in capsys.readouterr().out

    @staticmethod
    def scaled_ch(tmp_path, k):
        """An inequality file of CH x 2^k."""
        ineq = catalog.ch_inequality().to_json()
        ineq["coeffs"] = {e: str(Fraction(2) ** k * Fraction(v)) for e, v in ineq["coeffs"].items()}
        ineq["lower"] = ineq["upper"] = None
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(ineq))
        return str(path)

    @pytest.mark.parametrize("k", [-1023, -1030])
    def test_subnormal_operator(self, ch_files, tmp_path, capsys, k):
        # CH x 2^k: the operator's unit is subnormal, and so 1 / unit is not
        # finite; every check divides it on the float view instead
        s, i = ch_files
        angles = ["--angles", "1=0,2=pi/2,3=pi/4,4=3pi/4"]
        assert main(["bound", "--structure", s, "--ineq", i, *angles]) == 0
        scaled = self.scaled_ch(tmp_path, k)
        assert main(["bound", "--structure", s, "--ineq", scaled, *angles]) == 0
        want, got = (
            float(next(ln for ln in out.splitlines() if ln.startswith("lambda_max")).split()[1])
            for out in capsys.readouterr().out.split("classical range")[1:]
        )
        assert got == pytest.approx(math.ldexp(want, k), rel=1e-9)

    def test_argmax_is_first_column_of_top_cluster(self, tmp_path, capsys):
        # at angle 0 the operator is diag(1 + c - 1.5, 1, c, 0) with
        # c = 1 - 1e-10: lambda_max = 1 shares its cluster with c, whose
        # eigenvector |10> comes after |01> in that cluster's columns
        s, i = tmp_path / "s.json", tmp_path / "i.json"
        s.write_text(json.dumps(reference.single_setting_structure().to_json()))
        i.write_text(json.dumps({"coeffs": {"1": "1", "2": "0.9999999999", "1,2": "-1.5"}}))
        assert main(["bound", "--structure", str(s), "--ineq", str(i), "--angles", "1=0,2=0"]) == 0
        out = capsys.readouterr().out
        assert "lambda_max        1\n" in out
        assert "degenerate max    yes\n" in out
        assert "argmax state      (0+0j) (1+0j) (0+0j) (0+0j)\n" in out

    def test_zero_imaginary_parts_print_unsigned(self, ch_files, capsys):
        # LAPACK returns -0.0 imaginary parts in this argmax state
        s, i = ch_files
        rc = main(
            [
                "bound",
                "--structure", s,
                "--ineq", i,
                "--angles", "1=0,2=pi/3,3=pi/6,4=pi/2",
            ]
        )
        assert rc == 0
        state = next(
            ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("argmax state")
        )
        assert state.count("+0j") == 4


class TestSweepCommand:
    def run_sweep(self, ch_files, tmp_path, extra=()):
        s, i = ch_files
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep",
                "--structure", s,
                "--ineq", i,
                "--schedule", "1=0,2=2t,3=t,4=3t",
                "--grid", "0:pi:9",
                "--samples", "20",
                "--seed", "17",
                "--out", str(out),
                *extra,
            ]
        )
        return rc, out

    def test_schedule_exponents(self, ch_files, tmp_path):
        # 1e-3 in a schedule term reads as 0.001 does, as in --angles
        data = []
        for schedule in ("1=0,2=2t+0.001,3=t,4=3t", "1=0,2=2t+1e-3,3=t,4=3t"):
            rc, out = self.run_sweep(ch_files, tmp_path, extra=["--schedule", schedule])
            assert rc == 0
            data.append(out.read_bytes())
        assert data[0] == data[1]

    def test_analytic_column(self, ch_files, tmp_path):
        rc, out = self.run_sweep(ch_files, tmp_path)
        rows = out.read_text().splitlines()[1:]
        for row in rows:
            f = row.split(",")
            theta, amax = float(f[0]), float(f[2])
            want = (math.sqrt(1 + math.sin(2 * theta) ** 2) - 1) / 2
            assert amax == pytest.approx(want, abs=1e-10)
            assert float(f[3]) >= float(f[1]) - 1e-12  # sampled_min >= analytic_min
            assert float(f[4]) <= amax + 1e-12

    @pytest.mark.parametrize(
        "schedule,grid,where",
        [
            ("1=0,2=2t,3=t,4=3t", "-1e308:1e308:3", "grid point theta = nan"),
            ("1=1e308t,2=t,3=t,4=t", "0:10:3", "grid point theta = 5.0"),
        ],
        ids=["grid-point", "angle"],
    )
    @pytest.mark.parametrize("extra", [[], ["--eigencurves"]], ids=["sweep", "eigencurves"])
    def test_non_finite_point_exit_code(
        self, ch_files, tmp_path, capsys, monkeypatch, schedule, grid, where, extra
    ):
        # refused before any operator is built
        def no_build(*args):
            raise AssertionError("operator built")

        # every route of the sweep builds its operators through bell_operators
        monkeypatch.setattr(sampling, "bell_operators", no_build)
        s, i = ch_files
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(
                ["sweep", "--structure", s, "--ineq", i, "--schedule", schedule,
                 f"--grid={grid}", "--out", str(out), *extra]
            )
        assert rc == 2
        err = capsys.readouterr().err
        assert where in err and "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    @pytest.mark.parametrize("extra", [[], ["--eigencurves"]], ids=["grid-points", "eigencurves-grid-points"])
    def test_budget_exit_code(self, ch_files, tmp_path, monkeypatch, extra):
        # one point above the limit is refused before the grid is laid out
        def no_grid(*args, **kwargs):
            raise AssertionError("grid laid out")

        monkeypatch.setattr(cli.np, "linspace", no_grid)
        rc, out = self.run_sweep(
            ch_files, tmp_path, extra=["--grid", "0:pi:100002", "--samples", "0", *extra]
        )
        assert rc == 3
        assert not out.exists()

    def test_eigencurves_norm_beyond_float_range(self, ch_files, tmp_path, monkeypatch):
        # the corpus entry exit4-norm-overflow: the first point's norm check
        # refuses it, before any other point or the whole grid is built
        points, build = [], sampling.bell_operators

        def spy(ineq, angles, structure):
            points.append(len(next(iter(angles.values()))))
            return build(ineq, angles, structure)

        monkeypatch.setattr(sampling, "bell_operators", spy)
        s, _ = ch_files
        i = tmp_path / "huge_ineq.json"
        i.write_text(json.dumps({"coeffs": {"1,3": "1.3e308", "2,4": "1.3e308"}}))
        out = tmp_path / "curves.csv"
        rc = main(
            ["sweep", "--structure", s, "--ineq", str(i), "--schedule", "1=0,2=pi,3=0,4=pi",
             "--grid", "0:1:3", "--eigencurves", "--out", str(out)]
        )
        assert rc == 4
        assert points == [1]
        assert not out.exists()

    def test_eigencurves_of_huge_coefficients(self, tmp_path):
        # I3322 x 2^600: the Cardano cubic runs in the block's units, so b**3
        # cannot overflow
        s = tmp_path / "structure.json"
        s.write_text(json.dumps(catalog.i33_structure().to_json()))
        ineq = catalog.i33_inequality().to_json()
        ineq["coeffs"] = {k: str(2**600 * Fraction(v)) for k, v in ineq["coeffs"].items()}
        ineq["lower"] = ineq["upper"] = None
        i = tmp_path / "ineq.json"
        i.write_text(json.dumps(ineq))
        out = tmp_path / "curves.csv"
        rc = main(
            [
                "sweep", "--structure", str(s), "--ineq", str(i),
                "--schedule", "1=0,2=t,3=2t,4=0,5=t,6=2t", "--grid", "0:pi:101",
                "--eigencurves", "--out", str(out),
            ]
        )
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        values = np.array([[float(x) for x in row.split(",")] for row in rows])
        assert values.shape == (101, 5)
        assert np.all(np.isfinite(values))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_eigencurves_of_entries_near_float_max(self, tmp_path):
        # the split operator of the corpus entry exit4-norm-overflow, with a
        # norm of about 1.70e308 in place of 1.84e308, so in range:
        # its Bell-basis entries halve every term before adding, so none
        # overflows, and the curves are 1e308 times those of coefficients 1.2
        s = tmp_path / "structure.json"
        s.write_text(json.dumps(catalog.ch_structure().to_json()))
        curves = []
        for coeff in ("1.2e308", "1.2"):
            i = tmp_path / "ineq.json"
            i.write_text(json.dumps({"coeffs": {"1,3": coeff, "2,4": coeff}}))
            out = tmp_path / f"curves-{coeff}.csv"
            rc = main(
                ["sweep", "--structure", str(s), "--ineq", str(i),
                 "--schedule", "1=0,2=pi,3=0,4=pi", "--grid", "0:1:3",
                 "--eigencurves", "--out", str(out)]
            )
            assert rc == 0
            rows = out.read_text().splitlines()[1:]
            curves.append(np.array([[float(x) for x in row.split(",")] for row in rows]))
        huge, small = curves
        assert huge.shape == (3, 5) and np.all(np.isfinite(huge))
        assert np.allclose(huge[:, 1:] / 1e308, small[:, 1:], rtol=1e-11, atol=0)

