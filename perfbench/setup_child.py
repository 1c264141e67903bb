"""Time one set-up of threeweb in this fresh interpreter.

Set-up is the package import, the bundled corpus, and the web texts given
on stdin as a JSON list of [name, text] pairs.  Prints, as JSON, the
seconds taken and the factor that states them at the reference speed (see
reference.py), from reference-loop chunks run right after the set-up in
this process.  Run by harness.setup_seconds with PYTHONPATH pointing at the
source tree.
"""

import json
import sys
import time

texts = json.load(sys.stdin)
start = time.perf_counter()
import threeweb  # noqa: E402  (the import is what is being timed)

threeweb.load_corpus()
for name, text in texts:
    threeweb.parse_web(text, name=name)
took = time.perf_counter() - start

import reference  # noqa: E402  (imported after the timed set-up)

chunks = [reference.chunk() for _ in range(23)][3:]  # 3 warm numpy up
print(json.dumps({"seconds": took, "factor": reference.factor(chunks)}))
