"""Run an mcpidg CLI command with the layers' public functions traced.

Usage: python3 perfbench/shim.py SPANS_PATH <mcpidg CLI arguments...>

Wraps the layer functions (see layertrace.TARGETS), hands over to
`mcpidg.cli.main`, and writes the recorded spans to SPANS_PATH when the
command returns (for the serve commands: after SIGTERM or SIGINT).
"""

import sys

import layertrace


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = layertrace.Recorder()
    recorder.install()
    from mcpidg import cli

    try:
        return cli.main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
