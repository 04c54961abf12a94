"""Run one displab CLI command with layer spans installed.

    python3 bench/traced_cli.py TRACE_OUT [displab arguments ...]

Behaves like ``python3 -m displab.cli [arguments ...]`` run from ``src/``
(same stdout, stderr and exit code) and additionally writes the spans and
counters of the run to TRACE_OUT as JSON when the command ends.  The
package import itself is recorded as the ``cli.import`` span.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tracer import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli = tracer.wrap("cli.import", importlib.import_module)("displab.cli")
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())
