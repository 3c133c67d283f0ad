"""Set-up probe: one fresh interpreter imports polyabiquad from SRC and answers
one request for Q(i, sqrt 2).

    python3 bench/probe.py SRC

Prints one JSON object: the wall and reference seconds (refkernel.py) from
before the import to the answer, and the answer's stdout.  run.py starts
this several times and takes the median.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from refkernel import ReferenceClock, time_kernel


def answer(src: str):
    sys.path.insert(0, src)
    from polyabiquad import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["biquad", "-1", "2", "--json"])
    return rc, buf.getvalue(), cli.__file__


def main() -> None:
    time_kernel()  # the first call in a fresh process runs cold
    (rc, out, module), wall, ref, _ = ReferenceClock().measure(answer, sys.argv[1])
    print(json.dumps({"rc": rc, "wall_s": wall, "ref_s": ref, "stdout": out,
                      "module": module}))


if __name__ == "__main__":
    main()
