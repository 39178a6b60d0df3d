import csv
import dataclasses
import hashlib
import io
import json
import math
import sys

import pytest

from twomode import bounds, cli, extremal, symplectic
from twomode.bounds import SamplerConfig, iter_samples
from twomode.cli import EXIT_OK, EXIT_UNPHYSICAL, EXIT_USAGE, EXIT_VIOLATION, main

from conftest import BLOCK_NOT_POSITIVE_DEFINITE
from test_bounds import NO_SPECTRUM, UNPHYSICAL, _scalar_experiment, blocks_of, failing_stream

R_53 = 0.5 * math.acosh(5.0 / 3.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeasure:
    def test_squeezed_state_report(self, capsys):
        code, out, _ = run(capsys, "measure", "--squeezed-r", str(R_53))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["spectrum"]["nu_tilde_minus"] == pytest.approx(1 / 3, abs=1e-12)
        assert report["negativity"]["log_negativity"] == pytest.approx(math.log2(3.0), abs=1e-12)
        assert report["negativity"]["eof_symmetric"] == pytest.approx(1.0817041659455104, abs=1e-8)
        assert report["gaussian_em"]["gaussian_eof"] == pytest.approx(1.0817041659455104, abs=1e-8)
        assert report["purities"]["global"] == pytest.approx(1.0, abs=1e-9)

    def test_vacuum_has_no_entanglement(self, capsys, tmp_path):
        path = tmp_path / "vacuum.json"
        path.write_text(json.dumps({"cm": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}))
        code, out, _ = run(capsys, "measure", str(path))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["negativity"]["separable"] is True
        assert report["negativity"]["negativity"] == 0.0
        assert report["gaussian_em"]["m_opt"] == 1.0
        assert report["gaussian_em"]["gaussian_eof"] == 0.0

    def test_standard_form_input(self, capsys, tmp_path):
        path = tmp_path / "sf.json"
        path.write_text(json.dumps({"standard_form": {
            "a": 2.0, "b": 1.5, "c_plus": 1.1, "c_minus": -1.1}}))
        code, out, _ = run(capsys, "measure", str(path))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["standard_form"]["a"] == pytest.approx(2.0, rel=1e-12)

    def test_dash_reads_the_state_from_stdin(self, capsys, tmp_path, monkeypatch):
        text = json.dumps({"cm": [[2.0, 0.3, 1.1, 0.0], [0.3, 2.0, 0.0, -1.0],
                                  [1.1, 0.0, 1.5, 0.2], [0.0, -1.0, 0.2, 1.5]]})
        path = tmp_path / "state.json"
        path.write_text(text)
        from_file = run(capsys, "measure", str(path))
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run(capsys, "measure", "-") == from_file
        assert from_file[0] == EXIT_OK

    @pytest.mark.parametrize("state", [
        {"standard_form": {"a": 5 / 3, "b": 5 / 3, "c_plus": 4 / 3, "c_minus": -4 / 3}},
        {"cm": [[2.0, 0.3, 1.1, 0.0], [0.3, 2.0, 0.0, -1.0],
                [1.1, 0.0, 1.5, 0.2], [0.0, -1.0, 0.2, 1.5]]},  # a general form
    ])
    def test_one_spectrum_per_report(self, state, capsys, tmp_path, monkeypatch):
        # the report, negativity_report and minimize_m all read the form's
        # one stored spectrum: one pair for sigma, one for its transpose
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        pairs = []
        nu_pair = symplectic._nu_pair
        monkeypatch.setattr(symplectic, "_nu_pair", lambda *args: pairs.append(args) or nu_pair(*args))
        code, out, _ = run(capsys, "measure", str(path))
        assert code == EXIT_OK and json.loads(out)["gaussian_em"]["gaussian_eof"] > 0.0
        assert len(pairs) == 2

    def test_params_input_reports_closed_form(self, capsys):
        code, out, _ = run(capsys, "measure", "--params", "2", "0.5", "2.5", "1")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["closed_form"]["family"] == "gmems"
        closed = report["closed_form"]["m_opt"]
        assert closed == pytest.approx(1.0929752066115703, rel=1e-10)
        assert report["gaussian_em"]["m_opt"] == pytest.approx(closed, rel=1e-8)

    def test_glems_params(self, capsys):
        code, out, _ = run(capsys, "measure", "--params", "2", "0.5", "2.5", "-1")
        report = json.loads(out)
        assert code == EXIT_OK
        assert report["closed_form"]["family"] == "glems"
        assert report["closed_form"]["m_opt"] == pytest.approx(1.0551972518870598, rel=1e-10)

    def test_params_on_the_gmemms_line_report_gmemms(self, capsys):
        # g = 2|d| + 1: the families coincide whatever lambda is
        code, out, _ = run(capsys, "measure", "--params", "2", "0.5", "2", "0.3")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["closed_form"] == {"family": "gmemms", "m_opt": 1.7777777777777777}
        assert report["gaussian_em"]["m_opt"] == pytest.approx(16.0 / 9.0, rel=1e-8)

    def test_log_base_e(self, capsys):
        code, out, _ = run(capsys, "measure", "--squeezed-r", str(R_53), "--log-base", "e")
        report = json.loads(out)
        assert report["negativity"]["log_negativity"] == pytest.approx(math.log(3.0), abs=1e-12)

    def test_unphysical_input_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"cm": [[0.5 if i == j else 0 for j in range(4)] for i in range(4)]}))
        code, _, err = run(capsys, "measure", str(path))
        assert code == EXIT_UNPHYSICAL
        assert "Det sigma" in err or "purity" in err

    @pytest.mark.parametrize("state, named", [
        *(({"cm": cm.tolist()}, "not positive definite") for cm in BLOCK_NOT_POSITIVE_DEFINITE),
        ({"standard_form": {"a": 2.0, "b": 2.0, "c_plus": 1.7, "c_minus": 1.7}}, "Delta"),
        ([1], "state JSON must be an object"),
        # strings and booleans are no numbers, and an object holds one state
        ({"cm": [["2", 0, 1, 0], [0, "2", 0, -1], [1, 0, 2, 0], [0, -1, 0, 2]]},
         "invalid 'cm' entries: str '2' is not a number"),
        ({"standard_form": {"a": "2", "b": True, "c_plus": 0, "c_minus": 0}},
         "invalid 'standard_form' object: str '2' is not a number"),
        ({"standard_form": {"a": 2, "b": True, "c_plus": 0, "c_minus": 0}},
         "invalid 'standard_form' object: bool True is not a number"),
        ({"cm": [[2, 0, 1, 0], [0, 2, 0, -1], [1, 0, 2, 0], [0, -1, 0, 2]],
          "standard_form": {"a": 2, "b": 2, "c_plus": 1, "c_minus": -1}}, "not both"),
    ])
    def test_unphysical_input_names_the_failure(self, capsys, tmp_path, state, named):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(state))
        code, _, err = run(capsys, "measure", str(path))
        assert code == EXIT_UNPHYSICAL
        assert named in err

    def test_overflowing_squeezing_exits_2(self, capsys):
        code, _, err = run(capsys, "measure", "--squeezed-r", "400")
        assert code == EXIT_UNPHYSICAL
        assert "overflows" in err

    def test_asymmetric_matrix_exits_2_with_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "asym.json"
        cm = [[1, 0.3, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        path.write_text(json.dumps({"cm": cm}))
        code, _, err = run(capsys, "measure", str(path))
        assert code == EXIT_UNPHYSICAL
        assert "symmetric" in err

    def test_invalid_json_exits_64(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "measure", str(path))
        assert code == EXIT_USAGE
        assert "invalid JSON" in err

    @pytest.mark.parametrize("text", [
        b'\xff\xfe{"cm": 1}',  # not UTF-8
        b"[" * 200_000 + b"]" * 200_000,  # nested past the recursion limit
        pytest.param(b'{"standard_form": {"a": 1' + b"0" * 5000 + b"}}",  # past the digit limit
                     marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                              reason="no int-string digit limit")),
    ], ids=["not-utf8", "deep-nesting", "digit-limit"])
    def test_unparsable_input_exits_64(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        code, _, err = run(capsys, "measure", str(path))
        assert code == EXIT_USAGE
        assert err.startswith("twomode: error: invalid JSON input: ")

    @pytest.mark.parametrize("text", [
        '{"standard_form": {"a": 1%s, "b": 1, "c_plus": 0, "c_minus": 0}}' % ("0" * 400),
        '{"cm": [[1%s, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}' % ("0" * 400),
    ], ids=["standard_form", "cm"])
    def test_integer_beyond_the_float_range_exits_2(self, capsys, tmp_path, text):
        # as 1e400 does, which JSON reads as inf
        path = tmp_path / "big.json"
        path.write_text(text)
        code, _, err = run(capsys, "measure", str(path))
        assert code == EXIT_UNPHYSICAL
        assert err.startswith("twomode: unphysical or invalid state: invalid '")

    def test_unbuildable_params_exit_2(self, capsys):
        code, _, err = run(capsys, "measure", "--params", "2", "0.5", "1.5", "1")
        assert code == EXIT_UNPHYSICAL
        assert "g >= 2|d| + 1" in err

    def test_params_beyond_fischer_bound_exit_2(self, capsys):
        # g = 5 > s^2 - d^2 = 3.75: Det sigma would exceed Det alpha Det beta
        code, _, err = run(capsys, "measure", "--params", "2", "0.5", "5", "1")
        assert code == EXIT_UNPHYSICAL
        assert "s^2 - d^2" in err

    def test_conflicting_inputs_exit_64(self, capsys):
        code, _, _ = run(capsys, "measure", "--squeezed-r", "0.3", "--params", "2", "0", "1.5", "0")
        assert code == EXIT_USAGE

    def test_unknown_flag_exits_64(self, capsys):
        # measure applies the package's tolerances and has no --tol-* flag
        for flag in ("--nonsense", "--tol-physical", "--tol-near-separable", "--tol-symmetry"):
            with pytest.raises(SystemExit) as info:
                main(["measure", "--squeezed-r", "0.3", flag, "1e-6"])
            assert info.value.code == EXIT_USAGE
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestScan:
    def test_small_slice(self, capsys, tmp_path):
        grid = tmp_path / "grid.csv"
        boundary = tmp_path / "boundary.csv"
        code, out, _ = run(
            capsys, "scan", "--fixed-a", "5", "--b-range", "1", "5",
            "--g-range", "1", "9", "--resolution", "24",
            "--grid", str(grid), "--boundary", str(boundary),
        )
        assert code == EXIT_OK
        summary = json.loads(out)
        assert summary["cells"] == 24 * 24
        assert set(summary["regimes"]) == {
            "unphysical", "both_separable", "coexistence",
            "ordering_preserved", "ordering_inverted",
        }
        header = grid.read_text().splitlines()[0]
        assert header == "s,d,g,m_gmems,m_glems,nu_tilde_gmems,nu_tilde_glems,regime"
        assert boundary.read_text().splitlines()[0] == "s,d,g_boundary"

    def test_scan3d_emits_files(self, capsys, tmp_path):
        grid = tmp_path / "grid3d.csv"
        boundary = tmp_path / "b3d.csv"
        code, out, _ = run(
            capsys, "scan3d", "--s-range", "1.5", "4", "--d-range", "-1", "1",
            "--g-range", "1", "7", "--resolution", "8",
            "--grid", str(grid), "--boundary", str(boundary),
        )
        assert code == EXIT_OK
        summary = json.loads(out)
        assert summary["cells"] == 8**3
        assert sum(summary["regimes"].values()) == 8**3
        assert len(grid.read_text().splitlines()) == 8**3 + 1

    def test_scan3d_at_large_s(self, capsys, tmp_path):
        # the closed forms once raised DomainError in this physical window
        code, out, err = run(
            capsys, "scan3d", "--s-range", "87307.69230769231", "87400",
            "--d-range", "-2564.1025641025626", "-2500",
            "--g-range", "123077.30769230769", "123100", "--resolution", "2",
            "--grid", str(tmp_path / "grid.csv"), "--boundary", str(tmp_path / "b.csv"),
        )
        assert code == EXIT_OK, err
        assert json.loads(out)["cells"] == 8


EXCEEDS = [
    ["scan", "--fixed-a", "5", "--b-range", "1", "5", "--g-range", "1", "9",
     "--resolution", "1"],
    ["scan3d", "--s-range", "1.5", "4", "--d-range", "-1", "1", "--g-range", "1", "7",
     "--resolution", "1"],
    ["bounds", "--samples", "0"],
    # index 2**63 would not fit the sampler's int64 index arrays
    ["bounds", "--samples", "9223372036854775809"],
    ["bounds", "--samples", "5", "--s-max", "1"],
    ["bounds", "--samples", "5", "--s-max", "inf"],
    ["bounds", "--samples", "5", "--s-max", "1e80"],
    ["bounds", "--samples", "5", "--s-max", "nan"],
    ["bounds", "--samples", "5", "--curve-resolution", "1"],
]
# A leading NAME=VALUE sets an environment variable, as in the shell.
AT_LEAST_0 = [
    ["bounds", "--samples", "2", "--seed", "-1"],
    ["TWOMODE_SEED=-5", "bounds", "--samples", "2"],
]


@pytest.mark.parametrize("argv", EXCEEDS + AT_LEAST_0)
def test_out_of_range_option_exits_64(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where the default output files would go
    expected = "must exceed" if argv in EXCEEDS else "must be at least 0"
    argv = list(argv)
    while "=" in argv[0]:
        monkeypatch.setenv(*argv.pop(0).split("=", 1))
    # argparse exits; a bad environment variable is reported by main's return
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == EXIT_USAGE
    assert expected in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


SCAN_SLICE = ["scan", "--fixed-a", "5", "--b-range", "1", "5", "--g-range", "1", "9"]
SCAN_3D = ["scan3d", "--s-range", "1.5", "4", "--d-range", "-1", "1", "--g-range", "1", "7"]


@pytest.mark.parametrize("argv, scan, args", [
    (SCAN_SLICE, extremal.scan_ordering_slice, (5.0, (1.0, 5.0), (1.0, 9.0), 24)),
    (SCAN_3D, extremal.scan_ordering_3d, ((1.5, 4.0), (-1.0, 1.0), (1.0, 7.0), 8)),
])
def test_scan_outputs_equal_the_library_cells(argv, scan, args, tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    code, out, err = run(capsys, *argv, "--resolution", str(args[-1]), "--grid", str(grid),
                         "--boundary", str(tmp_path / "b.csv"))
    assert code == EXIT_OK and err == ""
    cells, boundary = scan(*args)
    rows = ["%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s" % (*cell[:7], cell.regime.value)
            for cell in cells]
    assert grid.read_bytes().decode().split("\r\n")[1:] == rows + [""]
    counts = {}  # in order of first appearance
    for cell in cells:
        counts[cell.regime.value] = counts.get(cell.regime.value, 0) + 1
    summary = json.loads(out)
    assert list(summary["regimes"].items()) == list(counts.items())
    assert (summary["cells"], summary["boundary_points"]) == (len(cells), len(boundary))


def _no_rows(name):
    """A stand-in for the row class ``name`` whose construction raises."""
    def build(*args, **kwargs):
        raise AssertionError(f"a {name} was built")
    return type(name, (), {"__new__": build, "_make": staticmethod(build)})


@pytest.mark.parametrize("argv", [[*SCAN_SLICE, "--resolution", "24"],
                                  [*SCAN_3D, "--resolution", "8"]])
def test_scans_build_no_row_object(argv, tmp_path, capsys, monkeypatch):
    outputs = []
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(extremal, "ScanCell", _no_rows("ScanCell"))
            monkeypatch.setattr(extremal, "BoundaryPoint", _no_rows("BoundaryPoint"))
        code, out, err = run(capsys, *argv, "--grid", str(tmp_path / "grid.csv"),
                             "--boundary", str(tmp_path / "b.csv"))
        assert code == EXIT_OK, err
        outputs.append(((tmp_path / "grid.csv").read_bytes(),
                        (tmp_path / "b.csv").read_bytes(), out, err))
    assert outputs[0] == outputs[1]


def test_scan_without_physical_cells_warns(tmp_path, capsys):
    # g > s^2 - d^2 everywhere in this window
    code, out, err = run(capsys, "scan", "--fixed-a", "2", "--b-range", "2", "3",
                         "--g-range", "20", "30", "--resolution", "4",
                         "--grid", str(tmp_path / "grid.csv"),
                         "--boundary", str(tmp_path / "b.csv"))
    assert code == EXIT_OK
    summary = json.loads(out)
    assert (summary["cells"], summary["regimes"]) == (16, {"unphysical": 16})
    assert err == "warning: scan window contains no physical cells\n"


def _with(argv, flag, position, value):
    """``argv`` with the ``position``-th value after ``flag`` replaced."""
    argv = list(argv)
    argv[argv.index(flag) + 1 + position] = value
    return argv


NOT_FINITE = [
    _with(SCAN_SLICE, "--fixed-a", 0, "nan"),
    _with(SCAN_SLICE, "--b-range", 1, "inf"),
    _with(SCAN_SLICE, "--g-range", 0, "inf"),
    _with(SCAN_3D, "--s-range", 1, "inf"),
    _with(SCAN_3D, "--d-range", 0, "nan"),
    _with(SCAN_3D, "--g-range", 1, "inf"),
]


@pytest.mark.parametrize("argv", NOT_FINITE)
def test_non_finite_scan_option_exits_64(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_USAGE
    assert "must be finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# Beyond extremal.SCAN_LIMIT = 1e12 in magnitude; the first is the window
# whose closed forms once overflowed into a cell labelled from inf - inf.
BEYOND_LIMIT = [
    ["scan", "--fixed-a", "1e200", "--b-range", "1e199", "1e200", "--g-range", "1", "1e250",
     "--resolution", "4"],
    # negative values in decimal and in exponent form
    _with(SCAN_SLICE, "--fixed-a", 0, "-2000000000000.0"),
    _with(SCAN_SLICE, "--fixed-a", 0, "-2e12"),
    ["scan3d", "--s-range", "1.5", "5", "--d-range", "-1e13", "2", "--g-range", "1", "9"],
    _with(SCAN_SLICE, "--b-range", 1, "1.0000000000001e12"),
    _with(SCAN_3D, "--s-range", 0, "-10000000000000.0"),
    _with(SCAN_3D, "--d-range", 1, "1e300"),
    _with(SCAN_3D, "--g-range", 1, "2e12"),
]


@pytest.mark.parametrize("argv", BEYOND_LIMIT)
def test_scan_option_beyond_the_limit_exits_64(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_USAGE
    assert "at most 1e+12 in magnitude" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("plain, exponent", [("-2", "-2e0"), ("-1.5", "-1.5E+0")])
def test_negative_values_in_exponent_form_are_numbers(plain, exponent, tmp_path, capsys):
    grids = []
    for k, value in enumerate((plain, exponent)):
        grid = tmp_path / f"grid{k}.csv"
        code, _, err = run(capsys, "scan3d", "--s-range", "1.5", "5", "--d-range", value, "2",
                           "--g-range", "1", "9", "--resolution", "5",
                           "--grid", str(grid), "--boundary", str(tmp_path / "b.csv"))
        assert code == EXIT_OK, err
        grids.append(grid.read_bytes())
    assert grids[0] == grids[1]


@pytest.mark.parametrize("argv", [["-h"], ["scan3d", "-h"], ["bounds", "-h"]])
def test_help_options_still_parse(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: twomode")


@pytest.mark.parametrize("argv", [
    ["scan", "--fixed-a", "1e12", "--b-range", "-1000000000000.0", "1e12",
     "--g-range", "1", "1e12"],
    ["scan", "--fixed-a", "-1000000000000.0", "--b-range", "1", "1e12",
     "--g-range", "-1000000000000.0", "1e12"],
    ["scan3d", "--s-range", "1", "1e12", "--d-range", "-1000000000000.0", "1e12",
     "--g-range", "1", "1e12"],
])
def test_scan_at_the_limit_runs_without_floating_point_warnings(argv, tmp_path, capsys):
    # RuntimeWarnings are errors in this suite
    code, out, err = run(capsys, *argv, "--resolution", "6",
                         "--grid", str(tmp_path / "grid.csv"),
                         "--boundary", str(tmp_path / "b.csv"))
    assert code == EXIT_OK, err
    assert json.loads(out)["cells"] == 6 ** (3 if argv[0] == "scan3d" else 2)


def _fmt(value) -> str:
    """How values were written before the template writer."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def test_write_csv_matches_csv_writer(tmp_path):
    floats = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -1.7976931348623157e308,
              0.1, 1.0 / 3.0, 2.0 ** 60, 123456789.0, 1e-17]
    rows = [(i, x, -x, i % 2 == 0, x > 0.0, regime)
            for i, x in enumerate(floats)
            for regime in ("unphysical", "ordering_inverted")]
    rows.append((10 ** 12, 1.0, 2.5, True, False, "coexistence"))
    # rows on both sides of a slice that one % call formats
    rows *= 2 * cli._ROWS_PER_CALL // len(rows) + 1
    header = ["index", "x", "minus_x", "even", "positive", "regime"]
    cli._write_csv(str(tmp_path / "new.csv"), header, "%d,%.17g,%.17g,%d,%d,%s\r\n",
                   list(zip(*rows)))
    with open(tmp_path / "old.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert new.count(b"\r\n") == len(rows) + 1 == new.count(b"\n")
    # no rows: the header alone
    cli._write_csv(str(tmp_path / "empty.csv"), header, "%d\r\n", [])
    assert (tmp_path / "empty.csv").read_bytes() == b"index,x,minus_x,even,positive,regime\r\n"


class TestBounds:
    def test_small_run_summary(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "bounds", "--samples", "40", "--seed", "3",
            "--points", str(tmp_path / "p.csv"), "--curves", str(tmp_path / "c.csv"),
        )
        assert code == EXIT_OK
        summary = json.loads(out)
        assert summary["violations_42"] == 0
        assert summary["numerical_failures"] == 0

    def test_byte_identical_reruns(self, capsys, tmp_path):
        for tag in ("one", "two"):
            code, _, _ = run(
                capsys, "bounds", "--samples", "25", "--seed", "77",
                "--points", str(tmp_path / f"{tag}.csv"),
                "--curves", str(tmp_path / f"c_{tag}.csv"),
                "--summary", str(tmp_path / f"s_{tag}.json"),
            )
            assert code == EXIT_OK
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
        assert (tmp_path / "s_one.json").read_bytes() == (tmp_path / "s_two.json").read_bytes()

    def test_strict_mode_passes_clean_run(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "bounds", "--samples", "25", "--seed", "5", "--strict",
            "--points", str(tmp_path / "p.csv"), "--curves", str(tmp_path / "c.csv"),
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize("flags, exit_code", [([], EXIT_OK), (["--strict"], EXIT_VIOLATION)])
    def test_strict_mode_exits_3_on_a_ceiling_violation(self, capsys, tmp_path, monkeypatch,
                                                         flags, exit_code):
        experiment = bounds.bound_experiment
        monkeypatch.setattr(bounds, "bound_experiment", lambda cfg, log_base: (
            dataclasses.replace(experiment(cfg, log_base), violations_upper=1)))
        code, out, _ = run(
            capsys, "bounds", "--samples", "5", "--seed", "5", *flags,
            "--points", str(tmp_path / "p.csv"), "--curves", str(tmp_path / "c.csv"),
        )
        assert code == exit_code
        assert json.loads(out)["violations_42"] == 1

    def test_non_integer_seed_from_environment_exits_64(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TWOMODE_SEED", "abc")
        code, out, err = run(
            capsys, "bounds", "--samples", "5",
            "--points", str(tmp_path / "p.csv"), "--curves", str(tmp_path / "c.csv"),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "twomode: error: TWOMODE_SEED must be an integer, got 'abc'\n"
        assert not (tmp_path / "p.csv").exists()

    def test_points_in_a_missing_directory_exits_64(self, capsys, tmp_path):
        curves, summary = tmp_path / "c.csv", tmp_path / "s.json"
        code, out, err = run(
            capsys, "bounds", "--samples", "5", "--seed", "1",
            "--points", str(tmp_path / "missing" / "p.csv"), "--curves", str(curves),
            "--summary", str(summary),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("twomode: error: ") and "No such file or directory" in err
        assert not curves.exists() and not summary.exists()

    def test_seed_from_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TWOMODE_SEED", "77")
        code, _, _ = run(
            capsys, "bounds", "--samples", "25",
            "--points", str(tmp_path / "env.csv"), "--curves", str(tmp_path / "c.csv"),
            "--summary", str(tmp_path / "s_env.json"),
        )
        assert code == EXIT_OK
        assert json.loads((tmp_path / "s_env.json").read_text())["seed"] == 77
        # with neither --seed nor TWOMODE_SEED, the documented default
        monkeypatch.delenv("TWOMODE_SEED")
        code, out, _ = run(
            capsys, "bounds", "--samples", "2",
            "--points", str(tmp_path / "p.csv"), "--curves", str(tmp_path / "c.csv"),
        )
        assert code == EXIT_OK
        assert json.loads(out)["seed"] == 12345

    def test_geof_curves_file(self, capsys, tmp_path):
        path = tmp_path / "geof.csv"
        code, _, _ = run(
            capsys, "bounds", "--samples", "10", "--seed", "1",
            "--points", str(tmp_path / "p.csv"), "--curves", str(tmp_path / "c.csv"),
            "--geof-curves", str(path), "--curve-resolution", "32",
        )
        assert code == EXIT_OK
        lines = path.read_text().splitlines()
        assert lines[0] == "log_neg,geof_lower,geof_upper"
        for line in lines[1:]:
            _, lo, hi = (float(x) for x in line.split(","))
            assert lo <= hi


POINTS_HEADER = ["index", "s", "d", "g", "lambda", "nu_tilde_sigma", "nu_tilde_opt",
                 "log_neg", "geof", "violates_42", "violates_46"]


def _csv_writer_bytes(path, header, rows) -> bytes:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path.read_bytes()


def _points_equal_the_scalar_loop(capsys, tmp_path, cfg, log_base, samples):
    """Run ``bounds`` on ``cfg`` and check its points CSV, byte for byte,
    against the rows of the scalar loop over ``samples``; returns them."""
    points = tmp_path / "points.csv"
    code, _, err = run(capsys, "bounds", "--samples", str(cfg.count), "--seed", str(cfg.seed),
                       "--mode", cfg.mode, "--s-max", repr(cfg.s_max), "--log-base", log_base,
                       "--points", str(points), "--curves", str(tmp_path / "curves.csv"),
                       "--summary", str(tmp_path / "summary.json"))
    assert code == EXIT_OK, err
    rows = list(_scalar_experiment(samples, 2 if log_base == "2" else "e").points)
    assert points.read_bytes() == _csv_writer_bytes(tmp_path / "want.csv", POINTS_HEADER, rows)
    return rows


class TestPointsBytes:
    @pytest.mark.parametrize("log_base", ["2", "e"])
    @pytest.mark.parametrize("mode", ["extremal_params", "raw_standard_form"])
    # 257 and 600 rows cross the writer's slices of cli._ROWS_PER_CALL rows,
    # and the last count crosses two of the experiment's blocks
    @pytest.mark.parametrize("count", [1, 257, 600, 2 * bounds._BLOCK + 88])
    def test_points_csv_equals_the_scalar_loop(self, capsys, tmp_path, mode, log_base, count):
        cfg = SamplerConfig(seed=4, count=count, mode=mode)
        rows = _points_equal_the_scalar_loop(capsys, tmp_path, cfg, log_base, iter_samples(cfg))
        assert len(rows) == count

    @pytest.mark.parametrize("log_base", ["2", "e"])
    def test_failing_rows_around_a_block_boundary(self, capsys, tmp_path, monkeypatch, log_base):
        block = bounds._BLOCK
        good = list(iter_samples(SamplerConfig(seed=6, count=2 * block + 88)))
        # the last row of the first block, the first of the second, and
        # every row of the third: that block hands the writer no rows, and
        # a fourth block follows it
        failing = [(block - 1, UNPHYSICAL), (block, NO_SPECTRUM),
                   *((at, UNPHYSICAL if at % 2 else NO_SPECTRUM)
                     for at in range(2 * block, 3 * block))]
        stream = failing_stream(good, failing)
        monkeypatch.setattr(bounds, "_sample_blocks", blocks_of(stream))
        cfg = SamplerConfig(seed=6, count=len(stream))
        rows = _points_equal_the_scalar_loop(capsys, tmp_path, cfg, log_base, stream)
        assert len(rows) == len(good) == len(stream) - block - 2
        assert [row.index for row in rows[block - 2:block + 1]] == [block - 2, block + 1,
                                                                   block + 2]

    @pytest.mark.parametrize("count", [1, 300])
    def test_every_row_failing_writes_the_header_alone(self, capsys, tmp_path, monkeypatch,
                                                       count):
        stream = failing_stream([], [(at, UNPHYSICAL) for at in range(count)])
        monkeypatch.setattr(bounds, "_sample_blocks", blocks_of(stream))
        cfg = SamplerConfig(seed=6, count=count)
        assert _points_equal_the_scalar_loop(capsys, tmp_path, cfg, "2", stream) == []
        assert (tmp_path / "points.csv").read_bytes() == (",".join(POINTS_HEADER) + "\r\n").encode()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["numerical_failures"] == count


#: SHA-256 of the raw-mode points CSV of seed 1 and 300 states at s_max 20,
#: taken before extremal mode moved to its column counter layout: raw mode
#: kept its (k + 1, i) counters, its law and so its bytes.
RAW_POINTS_SHA256 = "875415cf82b0fc54139270059548569262599190f1e252bc6c22f21bf155d844"


def test_raw_points_bytes_are_pinned(capsys, tmp_path):
    points = tmp_path / "points.csv"
    code, _, err = run(capsys, "bounds", "--samples", "300", "--seed", "1",
                       "--mode", "raw_standard_form", "--points", str(points),
                       "--curves", str(tmp_path / "curves.csv"),
                       "--summary", str(tmp_path / "summary.json"))
    assert code == EXIT_OK, err
    assert hashlib.sha256(points.read_bytes()).hexdigest() == RAW_POINTS_SHA256


def test_a_failed_bounds_run_leaves_its_files_untouched(capsys, tmp_path, monkeypatch):
    # raw mode at s_max 1e4 finds no state in 50 attempts at index 0
    monkeypatch.setattr(bounds, "_MAX_REJECTIONS", 50)
    paths = {name: tmp_path / name for name in ("points.csv", "curves.csv", "summary.json")}
    for name, path in paths.items():
        path.write_text(f"earlier {name}\n")
    before = {name: path.stat().st_mtime_ns for name, path in paths.items()}
    code, out, err = run(capsys, "bounds", "--samples", "600", "--seed", "1",
                         "--mode", "raw_standard_form", "--s-max", "1e4",
                         "--points", str(paths["points.csv"]),
                         "--curves", str(paths["curves.csv"]),
                         "--summary", str(paths["summary.json"]))
    assert code == EXIT_UNPHYSICAL
    assert out == ""
    assert err == "twomode: error: no acceptable state after 50 rejections at index 0\n"
    for name, path in paths.items():
        assert path.read_text() == f"earlier {name}\n"
        assert path.stat().st_mtime_ns == before[name]


def test_geof_curves_reuse_the_bound_curves(capsys, tmp_path, monkeypatch):
    calls = []
    bound_curves = bounds.bound_curves

    def counted(resolution):
        calls.append(resolution)
        return bound_curves(resolution)
    monkeypatch.setattr(bounds, "bound_curves", counted)
    code, _, _ = run(capsys, "bounds", "--samples", "3", "--seed", "1",
                     "--points", str(tmp_path / "p.csv"), "--curves", str(tmp_path / "c.csv"),
                     "--geof-curves", str(tmp_path / "g.csv"), "--curve-resolution", "16",
                     "--summary", str(tmp_path / "s.json"))
    assert code == EXIT_OK
    assert calls == [16]
