"""Run one adjoint-kit CLI command under the span recorder.

    python3 perfbench/traced_cli.py SPANS_OUT.json <cli arguments...>

Used by the traced run of the cli-shipped workload in place of
`python -m adjointkit.cli`: it times the import of adjointkit.cli, wraps the
program's functions, runs the command and writes its spans and counts.
"""

import json
import sys

from spans import Recorder, install


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    rec.begin_op(0)
    with rec.span("cli.import"):
        import adjointkit.cli as cli
    install(rec)
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        rec.end_op()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(rec.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
