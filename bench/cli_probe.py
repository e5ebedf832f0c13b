"""A cold ``pga2d`` CLI run split into import, parse + evaluate, and render.

Usage (with ``src`` on PYTHONPATH)::

    python -X importtime bench/cli_probe.py run SCRIPT [--svg PATH]

Behaves like ``python -m pga2d.cli`` with the same arguments: same stdout,
stderr and exit code.  After the run it writes one extra stderr line,
``PROBE <json>``, with the wall time of ``import pga2d.cli`` and spans around
the ``parse``, ``evaluate`` and ``render_svg`` calls the CLI makes.
"""

import json
import sys
import time

MARK = "PROBE "


def main() -> int:
    t0 = time.perf_counter()
    import pga2d.cli as cli

    t1 = time.perf_counter()
    spans = [("import", t0, t1)]

    def timed(name, fn):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((name, start, time.perf_counter()))

        return call

    cli.parse = timed("parse", cli.parse)
    cli.evaluate = timed("evaluate", cli.evaluate)
    cli.render_svg = timed("render_svg", cli.render_svg)
    try:
        return cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.write(MARK + json.dumps(spans) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
