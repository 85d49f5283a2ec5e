"""Run ``python -m repro.service`` with the layer wrappers installed.

    python3 perfbench/svc_launch.py --trace-out spans.json -- --port 0

Everything after ``--`` goes to ``repro.service.__main__.main`` unchanged.
When the server has drained (SIGTERM), the recorded spans and counters are
written to ``--trace-out``.
"""

from __future__ import annotations

import os
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        print(__doc__, file=sys.stderr)
        return 2
    trace_out = argv[1]
    server_args = argv[3:] if argv[2:3] == ["--"] else argv[2:]

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracer
    from repro import parallel
    from repro.service import __main__ as service_main

    rec = tracer.install(service=True)
    code = service_main.main(server_args)
    rec.dump(trace_out, extra={"parallel.threads": parallel.get_num_threads()})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
