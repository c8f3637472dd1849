"""``python -m secondkind.cli`` with the layer tracer installed.

    python3 bench/clishim.py LAYERS_FILE <cli arguments>

Imports the CLI, wraps its layers (spans.py), runs ``main`` on the given
arguments with stdout passed through and counted, and writes the per-layer
totals and the spans of this one process to LAYERS_FILE.  The exit code is the CLI's.
"""

import json
import sys

import secondkind.cli

from spans import Tracer


class CountingStdout:
    """Passes text through to the real stdout and counts its UTF-8 bytes."""

    def __init__(self, stream, tracer):
        self.stream, self.tracer = stream, tracer

    def write(self, text):
        self.tracer.count("cli.output_bytes", len(text.encode()))
        return self.stream.write(text)

    def flush(self):
        self.stream.flush()


def main() -> int:
    out_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    real = sys.stdout
    sys.stdout = CountingStdout(real, tracer)
    try:
        code = secondkind.cli.main(argv)
    finally:
        sys.stdout = real
        tracer.uninstall()
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump({"layers": tracer.summary(1), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
