import hashlib
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

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


@pytest.fixture()
def ch_files(tmp_path):
    s = tmp_path / "structure.json"
    s.write_text(json.dumps(catalog.ch_structure().to_json()))
    i = tmp_path / "ineq.json"
    i.write_text(json.dumps(catalog.ch_inequality().to_json()))
    return str(s), str(i)


def layout_files(tmp_path, layout):
    """Structure and inequality JSON files of a catalog layout, 'ch' or 'i33'."""
    structure, ineq = {
        "ch": (catalog.ch_structure(), catalog.ch_inequality()),
        "i33": (catalog.i33_structure(), catalog.i33_inequality()),
    }[layout]
    s = tmp_path / "structure.json"
    s.write_text(json.dumps(structure.to_json()))
    i = tmp_path / "ineq.json"
    i.write_text(json.dumps(ineq.to_json()))
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
        want = catalog.sweep_schedule_22(0.7)
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


class TestUnwritableOutput:
    """An output path that cannot be opened for writing is bad input, exit 2."""

    def assert_refused(self, argv, capsys):
        assert main(argv) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_polytope(self, ch_files, tmp_path, capsys):
        s, _ = ch_files
        out = tmp_path / "missing" / "f.json"
        self.assert_refused(["polytope", "facets", "--structure", s, "--out", str(out)], capsys)

    def test_operator(self, ch_files, tmp_path, capsys):
        s, i = ch_files
        out = tmp_path / "missing" / "o.json"
        self.assert_refused(
            ["operator", "build", "--structure", s, "--ineq", i,
             "--angles", "1=0,2=pi/2,3=pi/4,4=3pi/4", "--out", str(out)],
            capsys,
        )

    def test_spectrum(self, tmp_path, capsys):
        op = tmp_path / "op.json"
        op.write_text('{"dim": 1, "entries": [[[1, 0]]]}')
        out = tmp_path / "missing" / "s.json"
        self.assert_refused(["spectrum", "--operator", str(op), "--out", str(out)], capsys)

    @pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["missing-dir", "directory"])
    def test_sweep(self, ch_files, tmp_path, capsys, target):
        s, i = ch_files
        out = tmp_path / target
        self.assert_refused(
            ["sweep", "--structure", s, "--ineq", i, "--schedule", "1=0,2=2t,3=t,4=3t",
             "--grid", "0:pi:3", "--out", str(out)],
            capsys,
        )
        # no manifest without its CSV
        assert not list(tmp_path.rglob("*.manifest.json"))


class TestEarlyOutputCheck:
    """``polytope`` and ``sweep`` check ``--out`` before their work, and a
    run that fails later leaves no new file and truncates no old one."""

    SWEEP = ["--schedule", "1=0,2=2t,3=t,4=3t", "--grid", "0:pi:3", "--samples", "10"]

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    def test_polytope_facets(self, ch_files, monkeypatch, capsys):
        monkeypatch.setattr(polytope, "_dd_rays", self.refuse)
        s, _ = ch_files
        assert main(["polytope", "facets", "--structure", s, "--out", "/nonexistent/x.json"]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_sweep(self, ch_files, monkeypatch, capsys):
        monkeypatch.setattr(cli, "sweep", self.refuse)
        s, i = ch_files
        argv = ["sweep", "--structure", s, "--ineq", i, *self.SWEEP, "--out", "/nonexistent/x.csv"]
        assert main(argv) == 2
        assert "cannot write" in capsys.readouterr().err

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
    def test_vertices(self, ch_files, tmp_path, capsys):
        s, _ = ch_files
        out = tmp_path / "v.json"
        assert main(["polytope", "vertices", "--structure", s, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["vertices"]) == 16

    def test_facets(self, ch_files, capsys):
        s, _ = ch_files
        assert main(["polytope", "facets", "--structure", s]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 24

    def test_verify(self, ch_files, capsys):
        s, i = ch_files
        assert main(["polytope", "verify", "--structure", s, "--ineq", i]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["valid"] and data["is_facet"]

    def test_verify_needs_ineq(self, ch_files, capsys):
        s, _ = ch_files
        assert main(["polytope", "verify", "--structure", s]) == 2

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["polytope", "vertices", "--structure", str(tmp_path / "no.json")]) == 2

    @pytest.mark.parametrize(
        "data",
        [b'\xff\xfe{"n_single": 2}', b"[" * 100000 + b"]" * 100000],
        ids=["not-utf8", "nested-too-deep"],
    )
    def test_unreadable_json_is_input_error(self, tmp_path, data):
        s = tmp_path / "structure.json"
        s.write_bytes(data)
        assert main(["polytope", "vertices", "--structure", str(s)]) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"n_single": 4, "sides": ["12", "34"], "joints": ["13", "14", "23", "24"]},
            {**catalog.ch_structure().to_json(), "n_single": 4.9},
        ],
        ids=["digit-strings", "float-n-single"],
    )
    def test_structure_wrong_types_exit_code(self, ch_files, tmp_path, doc):
        # a string of digits must not unpack into events, nor 4.9 truncate to 4
        _, i = ch_files
        s = tmp_path / "odd.json"
        s.write_text(json.dumps(doc))
        assert main(["polytope", "verify", "--structure", str(s), "--ineq", i]) == 2

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

    def test_duplicate_joint_either_order(self, tmp_path, capsys):
        joints = [[1, 3], [3, 1], [1, 4], [2, 3], [2, 4]]
        doc = {**catalog.ch_structure().to_json(), "joints": joints}
        s = tmp_path / "s.json"
        s.write_text(json.dumps(doc))
        assert main(["polytope", "facets", "--structure", str(s)]) == 2
        assert "duplicate joint terms" in capsys.readouterr().err

    def test_budget_exit_code(self, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(
            json.dumps(
                {
                    "n_single": 22,
                    "sides": [list(range(1, 22)), [22]],
                    "joints": [[1, 22]],
                }
            )
        )
        assert main(["polytope", "vertices", "--structure", str(big)]) == 3

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


class TestNonFiniteJson:
    """JSON numbers that are not finite, or too large for a float, are exit 2.

    Python's json module reads Infinity and NaN, and turns 1e400 into inf.
    """

    @pytest.mark.parametrize(
        "text",
        [
            '{"n_single": Infinity, "sides": [[1], [2]], "joints": [[1, 2]]}',
            '{"n_single": 1e400, "sides": [[1], [2]], "joints": [[1, 2]]}',
        ],
        ids=["infinity", "1e400"],
    )
    def test_structure(self, tmp_path, text):
        s = tmp_path / "structure.json"
        s.write_text(text)
        assert main(["polytope", "vertices", "--structure", str(s)]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"coeffs": {"1,3": Infinity, "1": -1}, "lower": null, "upper": 0}',
            '{"coeffs": {"1,3": 1, "1": -1}, "lower": null, "upper": 1e400}',
        ],
        ids=["coefficient-infinity", "bound-1e400"],
    )
    def test_inequality(self, ch_files, tmp_path, text):
        s, _ = ch_files
        i = tmp_path / "ineq.json"
        i.write_text(text)
        assert main(["polytope", "verify", "--structure", s, "--ineq", str(i)]) == 2

    def test_coefficient_too_large_for_float(self, ch_files, tmp_path):
        # exact in the polytope layer, but no float operator can hold it
        s, _ = ch_files
        i = tmp_path / "ineq.json"
        i.write_text('{"coeffs": {"1,3": 1' + "0" * 400 + ', "1": -1}, "upper": 0}')
        angles = "1=0,2=pi/2,3=pi/4,4=3pi/4"
        assert main(["polytope", "verify", "--structure", s, "--ineq", str(i)]) == 0
        assert main(["bound", "--structure", s, "--ineq", str(i), "--angles", angles]) == 2

    @pytest.mark.parametrize(
        "command",
        [
            ["operator", "build", "--angles", "1=0,2=pi/2,3=pi/4,4=3pi/4", "--out", "OUT"],
            ["bound", "--angles", "1=0,2=pi/2,3=pi/4,4=3pi/4"],
            ["sweep", "--schedule", "1=0,2=2t,3=t,4=3t", "--grid", "0:pi:5", "--out", "OUT"],
            [
                "sweep", "--schedule", "1=0,2=2t,3=t,4=3t", "--grid", "0:pi:5", "--out", "OUT",
                "--eigencurves",
            ],
        ],
        ids=["operator", "bound", "sweep", "eigencurves"],
    )
    def test_operator_sum_overflow(self, ch_files, tmp_path, command):
        # each coefficient is a float, but their sum on the diagonal is not
        s, _ = ch_files
        i = tmp_path / "ineq.json"
        i.write_text('{"coeffs": {"1": 1e308, "3": 1e308}, "upper": 0}')
        out = tmp_path / "out"
        argv = [str(out) if a == "OUT" else a for a in command]
        assert main([*argv, "--structure", s, "--ineq", str(i)]) == 4
        assert not out.exists()

    def test_operator_dim(self, tmp_path):
        op = tmp_path / "op.json"
        op.write_text('{"dim": 1e400, "basis": "computational", "entries": [[[1, 0]]]}')
        assert main(["spectrum", "--operator", str(op)]) == 2

    @pytest.mark.parametrize("amp", ["NaN", "1" + "0" * 400], ids=["nan", "400-digit"])
    def test_state_amplitude(self, tmp_path, amp):
        psi = tmp_path / "state.json"
        psi.write_text(
            f'{{"basis": "computational", "amplitudes": [[{amp}, 0], [1, 0], [0, 0], [0, 0]]}}'
        )
        assert main(["state", "analyze", "--state", str(psi)]) == 2


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

    def test_bell_basis_flag(self, ch_files, capsys):
        s, i = ch_files
        rc = main(
            [
                "operator",
                "build",
                "--structure", s,
                "--ineq", i,
                "--angles", "1=0,2=pi/2,3=pi/4,4=3pi/4",
                "--bell-basis",
            ]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["basis"] == "bell"

    def test_non_hermitian_operator_file(self, tmp_path):
        # checked, not repaired into the Hermitian part with eigenvalues +-0.5
        op = tmp_path / "op.json"
        op.write_text('{"dim": 2, "entries": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}')
        assert main(["spectrum", "--operator", str(op)]) == 2

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

    def test_bad_angles_exit_code(self, ch_files):
        s, i = ch_files
        rc = main(
            ["operator", "build", "--structure", s, "--ineq", i, "--angles", "oops"]
        )
        assert rc == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "1e400"])
    def test_non_finite_angle_exit_code(self, ch_files, bad):
        s, i = ch_files
        rc = main(
            ["bound", "--structure", s, "--ineq", i, "--angles", f"1={bad},2=pi/2,3=pi/4,4=3pi/4"]
        )
        assert rc == 2

    @pytest.mark.parametrize("command", [["bound"], ["operator", "build"]], ids=["bound", "operator"])
    def test_unknown_event_angle_exit_code(self, ch_files, command):
        s, i = ch_files
        rc = main(
            [*command, "--structure", s, "--ineq", i, "--angles", "1=0,2=pi/2,3=pi/4,4=3pi/4,9=1"]
        )
        assert rc == 2

    def test_repeated_event_angle_exit_code(self, ch_files):
        s, i = ch_files
        rc = main(
            ["bound", "--structure", s, "--ineq", i, "--angles", "1=0,1=5,2=pi/2,3=pi/4,4=3pi/4"]
        )
        assert rc == 2

    @pytest.mark.parametrize("extra", [[], ["--eigencurves"]], ids=["sweep", "eigencurves"])
    def test_repeated_event_schedule_exit_code(self, ch_files, tmp_path, extra):
        s, i = ch_files
        out = tmp_path / "x.csv"
        rc = main(
            [
                "sweep",
                "--structure", s,
                "--ineq", i,
                "--schedule", "1=0,2=2t,3=t,4=3t,1=t",
                "--grid", "0:pi:5",
                "--out", str(out),
                *extra,
            ]
        )
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("extra", [[], ["--eigencurves"]], ids=["sweep", "eigencurves"])
    def test_unknown_event_schedule_exit_code(self, ch_files, tmp_path, extra):
        s, i = ch_files
        out = tmp_path / "x.csv"
        rc = main(
            [
                "sweep",
                "--structure", s,
                "--ineq", i,
                "--schedule", "1=0,2=2t,3=t,4=3t,9=t",
                "--grid", "0:pi:5",
                "--out", str(out),
                *extra,
            ]
        )
        assert rc == 2
        assert not out.exists()


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

    def test_two_setting_peak(self, ch_files, capsys):
        s, i = ch_files
        rc = main(
            [
                "bound",
                "--structure", s,
                "--ineq", i,
                "--angles", "1=0,2=pi/2,3=pi/4,4=3pi/4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "classical range   [-1, 0]" in out
        lam = float(
            next(ln for ln in out.splitlines() if ln.startswith("lambda_max")).split()[1]
        )
        assert lam == pytest.approx((math.sqrt(2) - 1) / 2, abs=1e-10)
        ent = float(
            next(ln for ln in out.splitlines() if ln.startswith("entanglement")).split()[1]
        )
        assert ent == pytest.approx(1.0, abs=1e-9)


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

    def test_subnormal_operator_past_precision(self, ch_files, tmp_path, capsys):
        # at 2^-1060 the entries keep a few bits: the residual check refuses,
        # and names the residual in the operator's units, where it does not
        # underflow to 0
        s, _ = ch_files
        angles = ["--angles", "1=0,2=pi/2,3=pi/4,4=3pi/4"]
        scaled = self.scaled_ch(tmp_path, -1060)
        assert main(["bound", "--structure", s, "--ineq", scaled, *angles]) == 4
        residual = float(capsys.readouterr().err.split("eigen residual ")[1].split()[0])
        assert residual > 1e-10

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

    def test_writes_csv_and_manifest(self, ch_files, tmp_path):
        rc, out = self.run_sweep(ch_files, tmp_path)
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 10
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["seed"] == 17
        assert manifest["output_sha256"]

    def test_manifest_checksum_reproducible(self, ch_files, tmp_path):
        rc, out = self.run_sweep(ch_files, tmp_path)
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == manifest["output_sha256"]
        # rerunning reproduces the identical file
        first = out.read_bytes()
        rc, out = self.run_sweep(ch_files, tmp_path)
        assert out.read_bytes() == first

    def test_schedule_exponents(self, ch_files, tmp_path):
        # 1e-3 in a schedule term reads as 0.001 does, as in --angles
        data = []
        for schedule in ("1=0,2=2t+0.001,3=t,4=3t", "1=0,2=2t+1e-3,3=t,4=3t"):
            rc, out = self.run_sweep(ch_files, tmp_path, extra=["--schedule", schedule])
            assert rc == 0
            data.append(out.read_bytes())
        assert data[0] == data[1]

    def test_eigencurve_mode(self, ch_files, tmp_path):
        rc, out = self.run_sweep(ch_files, tmp_path, extra=["--eigencurves", "--samples", "0"])
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header == "theta,lambda1,lambda2,lambda3,lambda4"

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

    def test_bad_grid_exit_code(self, ch_files, tmp_path):
        s, i = ch_files
        rc = main(
            [
                "sweep",
                "--structure", s,
                "--ineq", i,
                "--schedule", "1=0,2=2t,3=t,4=3t",
                "--grid", "junk",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 2

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

    def test_eigencurves_with_samples_exit_code(self, ch_files, tmp_path):
        # eigencurves draw no samples, so a manifest must not claim any
        rc, out = self.run_sweep(ch_files, tmp_path, extra=["--eigencurves"])
        assert rc == 2
        assert not out.exists()
        assert not (tmp_path / "sweep.csv.manifest.json").exists()

    def test_negative_samples_exit_code(self, ch_files, tmp_path):
        rc, out = self.run_sweep(ch_files, tmp_path, extra=["--samples", "-5"])
        assert rc == 2
        assert not out.exists()

    def test_negative_seed_exit_code(self, ch_files, tmp_path):
        rc, out = self.run_sweep(ch_files, tmp_path, extra=["--seed", "-1"])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid,samples",
        [("0:pi:100002", "0"), ("0:pi:1", "1000001"), ("0:pi:1001", "999001")],
        ids=["grid-points", "samples-per-point", "grid-times-samples"],
    )
    def test_budget_exit_code(self, ch_files, tmp_path, grid, samples):
        # each case is one above its limit; the limits are checked before
        # the grid or any sample array is allocated
        rc, out = self.run_sweep(
            ch_files, tmp_path, extra=["--grid", grid, "--samples", samples]
        )
        assert rc == 3
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


    def test_eigencurves_norm_beyond_float_range(self, tmp_path, capsys):
        # at these angles the two joints are |00><00| and about |11><11|, so
        # the operator splits in the Bell basis; its entries are finite but
        # its norm, about 1.84e308, is not: the one check each point takes
        s = tmp_path / "structure.json"
        s.write_text(json.dumps(catalog.ch_structure().to_json()))
        i = tmp_path / "ineq.json"
        i.write_text(json.dumps({"coeffs": {"1,3": "1.3e308", "2,4": "1.3e308"}}))
        out = tmp_path / "curves.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(
                ["sweep", "--structure", str(s), "--ineq", str(i),
                 "--schedule", "1=0,2=pi,3=0,4=pi", "--grid", "0:1:3",
                 "--eigencurves", "--out", str(out)]
            )
        assert rc == 4
        assert capsys.readouterr().err == "numeric failure: matrix norm exceeds the float range\n"
        assert not out.exists()
        assert not (tmp_path / "curves.csv.manifest.json").exists()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_eigencurves_of_entries_near_float_max(self, tmp_path):
        # the same split operator with a norm of about 1.70e308, in range:
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

class TestReadmeSweepDigests:
    """The README's two sweep commands reproduce their pinned CSVs byte for byte.

    Digests recorded with the LAPACK eigensolver (numpy.linalg.eigh); a change
    that batches or reorders the sweep must keep them.  The eigencurve roots
    come from tridiagonal 3x3 blocks, on which LAPACK skips its BLAS updates,
    so that digest is the same under every OpenBLAS kernel.
    """

    @pytest.mark.parametrize(
        "layout,args,digest",
        [
            (
                "ch",
                ["--schedule", "1=0,2=2t,3=t,4=3t", "--samples", "3000", "--seed", "7"],
                "62f96d93905399ec4d3ced8078b652559e26c6b6e3c2c41f9ee765eef160b44f",
            ),
            (
                "i33",
                ["--schedule", "1=0,2=t,3=2t,4=0,5=t,6=2t", "--eigencurves"],
                "a9701bb07607d1f2eaf3a09f343f25f872e470ec2f5124620d7e9fb5e8ed4b28",
            ),
        ],
        ids=["ch-sweep", "i33-eigencurves"],
    )
    def test_digest(self, tmp_path, layout, args, digest):
        s, i = layout_files(tmp_path, layout)
        out = tmp_path / "out.csv"
        rc = main(
            [
                "sweep",
                "--structure", s,
                "--ineq", i,
                "--grid", "0:pi:101",
                "--out", str(out),
                *args,
            ]
        )
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestOperatorBuildDigests:
    """`operator build` writes the same JSON bytes, in either basis.

    Pins the operator file of the README's CH angles and of one generic
    three-setting angle set, so a change to how operators are built or
    converted cannot move a single bit unnoticed.  Neither the build nor the
    Bell-basis gather calls BLAS, so the digests do not depend on its kernel.
    """

    @pytest.mark.parametrize(
        "layout,angles,extra,digest",
        [
            (
                "ch",
                "1=0,2=pi/2,3=pi/4,4=3pi/4",
                [],
                "deb8da1f2b0101588a7a355a9b27f07579008090b3cf2abb6c0dde35d4be9840",
            ),
            (
                "ch",
                "1=0,2=pi/2,3=pi/4,4=3pi/4",
                ["--bell-basis"],
                "02a6fe308de21b38ec6d517978205cf21c779d5bd31d6da93c2997f8734c6044",
            ),
            (
                "i33",
                "1=0.3,2=1.1,3=2.5,4=-0.4,5=pi/5,6=3pi/4",
                [],
                "b0fe569ff451301d993316cd9fd849afc4dd97812ef516cee6fa7ff617dbfeb7",
            ),
            (
                "i33",
                "1=0.3,2=1.1,3=2.5,4=-0.4,5=pi/5,6=3pi/4",
                ["--bell-basis"],
                "32ae4e614972f53279987dd8b1af26f4978def24aeaf7c69e7f03cd00996edac",
            ),
        ],
        ids=["ch", "ch-bell-basis", "i33", "i33-bell-basis"],
    )
    def test_digest(self, tmp_path, layout, angles, extra, digest):
        s, i = layout_files(tmp_path, layout)
        out = tmp_path / "op.json"
        rc = main(
            ["operator", "build", "--structure", s, "--ineq", i, "--angles", angles, "--out", str(out), *extra]
        )
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestStateCommand:
    def test_analyze(self, tmp_path, capsys):
        psi = tmp_path / "state.json"
        amp = np.array([0, 1, -1, 0]) / math.sqrt(2)
        psi.write_text(
            json.dumps(
                {
                    "basis": "computational",
                    "amplitudes": [[float(z.real), float(z.imag)] for z in amp],
                }
            )
        )
        assert main(["state", "analyze", "--state", str(psi)]) == 0
        out = capsys.readouterr().out
        ent = float(
            next(ln for ln in out.splitlines() if ln.startswith("entanglement")).split()[1]
        )
        assert ent == pytest.approx(1.0, abs=1e-12)
