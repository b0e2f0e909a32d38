"""Cold start of promptdensity in a fresh interpreter.

Usage: python3 setup_probe.py <src dir>

Times the import of the package from <src dir>, then the first
default_lexicon() and default_templates() calls: the start-up every CLI
invocation pays. Prints one JSON object with the wall and CPU seconds of
each step. Only modules the interpreter loads at start-up are imported
before the timed steps, so the package pays for everything it imports.
"""
import os
import sys
import time

src = os.path.abspath(sys.argv[1])
sys.path.insert(0, src)
marks = [(time.perf_counter(), time.process_time())]
import promptdensity  # noqa: E402

marks.append((time.perf_counter(), time.process_time()))
promptdensity.default_lexicon()
marks.append((time.perf_counter(), time.process_time()))
promptdensity.rewrite.default_templates()
marks.append((time.perf_counter(), time.process_time()))

import json  # noqa: E402

if not os.path.abspath(promptdensity.__file__).startswith(src + os.sep):
    sys.exit(f"imported promptdensity from {promptdensity.__file__}, not {src}")
steps = ("import", "default_lexicon", "default_templates")
print(json.dumps({
    "wall": {s: b[0] - a[0] for s, a, b in zip(steps, marks, marks[1:])},
    "cpu": {s: b[1] - a[1] for s, a, b in zip(steps, marks, marks[1:])},
}))
