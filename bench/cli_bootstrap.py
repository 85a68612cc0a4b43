"""Run one relbel CLI command with every layer traced, then write its spans.

Usage: python bench/cli_bootstrap.py SPANS_FILE JOB_ID FIRST_SPAN_ID ARGS...

The traced cli-session job runs this in place of ``python -m relbel.cli``:
it installs the benchmark's wrappers, calls ``relbel.cli.main`` with ARGS,
and on exit writes the spans and work counters to SPANS_FILE for the parent
process to adopt. Standard output is the command's own, byte for byte.
"""

import sys

import relbel.cli
from tracer import Tracer, install


def main() -> None:
    spans_path, job, first_id, args = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4:]
    tracer = Tracer(job=job, first_id=first_id)
    install(tracer)
    try:
        relbel.cli.main(args=args, prog_name="relbel")
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main()
