"""Run one ``cmseq`` command with span recording, as ``python -m cmseq`` would.

Usage: ``python bench/traced_cli.py SPANS_FILE CMSEQ_ARGS...``

Times ``import cmseq.cli`` as the span ``cli.import``, wraps every public
cmseq function (see ``spans.Instrumentation``), runs ``cmseq.cli.main`` on
the remaining arguments and writes the spans to ``SPANS_FILE`` before
exiting with the command's exit code.
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Instrumentation, SpanRecorder, dump_spans  # noqa: E402


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    rec = SpanRecorder()
    start = perf_counter()
    import cmseq.cli  # noqa: F401  (timed: this is the start-up cost)

    end = perf_counter()
    spans = [(rec.new_id(), None, None, "cli.import", start, end, None)]
    Instrumentation(rec).install()
    rec.enabled = True
    try:
        code = sys.modules["cmseq.cli"].main(argv)
    finally:
        rec.enabled = False
        dump_spans(spans_file, spans + rec.take())
    return code


if __name__ == "__main__":
    sys.exit(main())
