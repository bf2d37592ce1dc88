"""Run the twistoric command line with the benchmark's spans installed.

    python3 bench/clitrace.py <twistoric arguments>

Behaves like ``python -m twistoric.cli``: same arguments, output and exit
code.  On exit it appends this process's span totals as one JSON line to the
file named by the BENCH_TRACE_OUT environment variable.  The import of the
command line module happens before the spans are installed; its cost is
measured separately as cli.import_ms.
"""

import json
import os
import sys

import tracer

import twistoric.cli

spans = tracer.Tracer()
uninstall = tracer.install(spans)
try:
    code = twistoric.cli.main(sys.argv[1:])
finally:
    uninstall()
    with open(os.environ["BENCH_TRACE_OUT"], "a", encoding="utf-8") as fh:
        fh.write(json.dumps(spans.totals()) + "\n")
sys.exit(code)
