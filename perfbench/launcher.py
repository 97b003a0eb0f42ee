"""Run the specpredict CLI with span wrappers installed, for the traced run.

    python3 perfbench/launcher.py SPANS_JSON <specpredict arguments...>

Times ``import specpredict`` in this fresh process, installs the wrappers of
``spans.py``, calls ``specpredict.cli.main(argv)`` and writes the spans and
the import time to SPANS_JSON; exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
import time

import spans


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import specpredict  # noqa: F401

    import_ms = 1e3 * (time.perf_counter() - start)
    import specpredict.cli

    recorder = spans.Recorder()
    spans.install(recorder)
    recorder.op = 0
    try:
        code = specpredict.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_ms": import_ms, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
