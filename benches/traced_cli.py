"""Run one CLI command in this fresh process with span wrappers installed.

    python benches/traced_cli.py SPANS_FILE [pendellosung argv ...]

src/ must be on PYTHONPATH. The spans are written to SPANS_FILE when the
command returns; the exit code is the command's.
"""

import sys

import pendellosung.cli
from tracer import Spans, Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    spans = Spans()
    Tracer(spans).install()
    spans.op_id = 0
    try:
        return pendellosung.cli.main(argv)
    finally:
        spans.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
