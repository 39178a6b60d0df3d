import csv
import json
import math

import pytest

from twomode import cli, extremal
from twomode.cli import EXIT_OK, EXIT_UNPHYSICAL, EXIT_USAGE, main

from conftest import BLOCK_NOT_POSITIVE_DEFINITE

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

    def test_unknown_flag_exits_64(self):
        with pytest.raises(SystemExit) as info:
            main(["measure", "--nonsense"])
        assert info.value.code == EXIT_USAGE


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
    # index 2**32 would need a second spawn-key word
    ["bounds", "--samples", "4294967297"],
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
    ["measure", "--squeezed-r", "0.3", "--tol-physical", "-0.5"],
    ["measure", "--squeezed-r", "0.3", "--tol-physical", "nan"],
    ["measure", "--squeezed-r", "0.3", "--tol-symmetry", "-0.5"],
    ["measure", "--squeezed-r", "0.3", "--tol-symmetry", "nan"],
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
    header = ["index", "x", "minus_x", "even", "positive", "regime"]
    cli._write_csv(str(tmp_path / "new.csv"), header, "%d,%.17g,%.17g,%d,%d,%s\r\n", rows)
    with open(tmp_path / "old.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert new.count(b"\r\n") == len(rows) + 1 == new.count(b"\n")


@pytest.mark.parametrize("value", ["-0.5", "nan"])
def test_negative_near_separable_tol_exits_64(value, capsys):
    with pytest.raises(SystemExit) as info:
        main(["measure", "--squeezed-r", "0.3", "--tol-near-separable", value])
    assert info.value.code == EXIT_USAGE
    assert "must be at least 0" in capsys.readouterr().err


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

    def test_seed_from_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TWOMODE_SEED", "77")
        code, _, _ = run(
            capsys, "bounds", "--samples", "25",
            "--points", str(tmp_path / "env.csv"), "--curves", str(tmp_path / "c.csv"),
            "--summary", str(tmp_path / "s_env.json"),
        )
        assert code == EXIT_OK
        assert json.loads((tmp_path / "s_env.json").read_text())["seed"] == 77

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
