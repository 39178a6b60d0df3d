"""Print the SHA-256 of every file the reference CLI runs write.

Usage, from anywhere:

    python tools/output_digest.py

The runs are the `bounds` experiment (seed 1, 4000 states, both sampler
modes; 200 raw-mode states at s_max 200, where the sampler rejects hundreds
of attempts per state; 1000 extremal states at s_max 1e5, where large
entries stress the minimizer's rounding; 1000 extremal states at s_max 1e6,
the sampler's upper limit ``S_MAX_LIMIT``, where its array tests decide on
the largest entries; 500 extremal states at seed
2**128 + 12345, a seed of five uint32 words;
1000 extremal states with --log-base e, the only run whose log_neg and geof
columns take natural logarithms; one state in each mode, the benchmark's
cold-start command, whose one block is partial),
the criterion-5 `scan` window at resolutions 200 and 60, the README
`scan3d` window at resolution 24, a `scan3d` window at s ~ 8.73e4 at
resolution 8 (every cell physical), two `scan` windows at resolution 4, one
with no boundary point and one with no physical cell, four `measure`
reports of already-standard matrices and one of a raw JSON ``cm``, which
takes the full reduction to the standard form.  Each scan contributes its
grid and boundary CSVs, its stdout summary (cell count, boundary-point
count and cells per regime) and its stderr (the warning of a window with no
physical cell).  They run in a
temporary directory against the `twomode` package in this checkout's
`src/`, and each output prints as one `sha256  label` line.  Running it on two commits and
diffing the lines shows which outputs a change moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from twomode import cli  # noqa: E402

SCAN_WINDOW = ["--fixed-a", "5", "--b-range", "1", "5", "--g-range", "1", "9"]
SCAN3D_WINDOW = ["--s-range", "1.5", "5", "--d-range", "-2", "2", "--g-range", "1", "9"]
LARGE_S_WINDOW = ["--s-range", "87307.69230769231", "87400",
                  "--d-range", "-2564.1025641025626", "-2500",
                  "--g-range", "123077.30769230769", "123100"]
#: No column crosses: the boundary CSV is its header alone.
NO_BOUNDARY_WINDOW = ["--fixed-a", "1", "--b-range", "1", "1.2", "--g-range", "1", "1.5"]
#: g > s^2 - d^2 everywhere: every cell is unphysical, and the scan warns.
NO_PHYSICAL_WINDOW = ["--fixed-a", "2", "--b-range", "2", "3", "--g-range", "20", "30"]
MEASURES = [
    ["--squeezed-r", "0.5493"],
    ["--params", "2", "0.5", "2.5", "1"],
    ["--params", "2", "0.5", "2.5", "-1"],
    ["--params", "2", "0.5", "2", "0.3"],
]

#: The raw ``cm`` measured from a JSON file: the entangled general standard
#: form (a, b, c_plus, c_minus) = (2.5, 1.5, 1.2, -1.0) seen through local
#: symplectic maps, each a squeeze diag(z, 1/z) followed by a rotation of
#: rational cosine.  Built in Python floats, so its bytes do not depend on
#: numpy.
RAW_FORM = (2.5, 1.5, 1.2, -1.0)
RAW_LOCAL_MAPS = ((0.6, 0.8, 2.0), (5 / 13, 12 / 13, 0.8))


def _raw_cm() -> list[list[float]]:
    """S sigma S^T for sigma of RAW_FORM and S the direct sum of the two
    RAW_LOCAL_MAPS."""
    a, b, cp, cm = RAW_FORM
    sigma = [[a, 0.0, cp, 0.0], [0.0, a, 0.0, cm], [cp, 0.0, b, 0.0], [0.0, cm, 0.0, b]]
    s = [[0.0] * 4 for _ in range(4)]
    for k, (cos, sin, z) in zip((0, 2), RAW_LOCAL_MAPS):
        s[k][k], s[k][k + 1], s[k + 1][k], s[k + 1][k + 1] = cos * z, -sin / z, sin * z, cos / z

    def product(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(4)) for j in range(4)] for i in range(4)]

    return product(product(s, sigma), [list(col) for col in zip(*s)])


def _run(argv: list[str]) -> tuple[bytes, bytes]:
    """Run one CLI command and return its stdout and stderr; a nonzero exit
    is fatal."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise SystemExit(f"twomode {' '.join(argv)} exited {code}: {err.getvalue()}")
    return out.getvalue().encode(), err.getvalue().encode()


def _outputs():
    """(label, bytes) of every output, in a fixed order."""
    runs = [("extremal_params", "4000", "20", "1", "2", ""),
            ("raw_standard_form", "4000", "20", "1", "2", ""),
            ("raw_standard_form", "200", "200", "1", "2", " s_max 200"),
            ("extremal_params", "1000", "1e5", "1", "2", " s_max 1e5"),
            ("extremal_params", "1000", "1e6", "1", "2", " s_max 1e6"),
            ("extremal_params", "500", "20", str(2**128 + 12345), "2", " seed 2**128+12345"),
            ("extremal_params", "1000", "20", "1", "e", " log-base e"),
            ("extremal_params", "1", "20", "1", "2", " samples 1"),
            ("raw_standard_form", "1", "20", "1", "2", " samples 1")]
    for mode, samples, s_max, seed, base, tag in runs:
        _run(["bounds", "--samples", samples, "--seed", seed, "--mode", mode, "--s-max", s_max,
              "--log-base", base, "--points", "points.csv", "--curves", "curves.csv",
              "--geof-curves", "geof.csv", "--summary", "summary.json"])
        for name in ("points.csv", "curves.csv", "geof.csv", "summary.json"):
            yield f"bounds {mode}{tag} {name}", Path(name).read_bytes()
    scans = [("scan", SCAN_WINDOW, 200, ""), ("scan", SCAN_WINDOW, 60, ""),
             ("scan3d", SCAN3D_WINDOW, 24, ""), ("scan3d", LARGE_S_WINDOW, 8, " large-s"),
             ("scan", NO_BOUNDARY_WINDOW, 4, " no-boundary"),
             ("scan", NO_PHYSICAL_WINDOW, 4, " no-physical")]
    for command, window, resolution, tag in scans:
        summary, warning = _run([command, *window, "--resolution", str(resolution),
                                 "--grid", "grid.csv", "--boundary", "boundary.csv"])
        for name in ("grid.csv", "boundary.csv"):
            yield f"{command}{tag} {resolution} {name}", Path(name).read_bytes()
        yield f"{command}{tag} {resolution} stdout", summary
        yield f"{command}{tag} {resolution} stderr", warning
    for argv in MEASURES:
        yield "measure " + " ".join(argv), _run(["measure", *argv])[0]
    Path("raw_cm.json").write_text(json.dumps({"cm": _raw_cm()}))
    yield "measure raw_cm.json", _run(["measure", "raw_cm.json"])[0]


def main() -> int:
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for label, data in _outputs():
                print(f"{hashlib.sha256(data).hexdigest()}  {label}")
        finally:
            os.chdir(start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
