"""Fresh-process set-up probe: import twomode and finish one workload item.

Usage: python3 cold.py SRC_DIR cli ARG...        (one ``twomode.cli.main`` call)
       python3 cold.py SRC_DIR measure INPUTS.npz  (first report of the inputs)

Prints ``time.perf_counter()`` at the moment the item is done.  On Linux that
clock is CLOCK_MONOTONIC, shared by all processes, so the parent subtracts
the reading it took just before starting this process.
"""

import contextlib
import os
import sys
import time


def main(argv: list[str]) -> None:
    src, kind, *rest = argv
    sys.path.insert(0, src)
    import twomode

    if kind == "cli":
        from twomode.cli import main as cli_main

        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = cli_main(rest)
        if code != 0:
            sys.exit(code)
    else:
        import numpy as np

        with np.load(rest[0]) as stored:
            cm = stored["matrices"][0]
        sf = twomode.to_standard_form(cm)
        sf.spectrum()
        twomode.negativity_report(sf)
        twomode.minimize_m(sf)
    print(repr(time.perf_counter()))


if __name__ == "__main__":
    main(sys.argv[1:])
