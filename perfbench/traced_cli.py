"""Run one ``qforecast`` CLI command with the span recorder installed.

Usage: PERFBENCH_SPANS=spans.json python3 perfbench/traced_cli.py <command> [flags]
"""

import sys

import tracer

if __name__ == "__main__":
    tracer.start_from_env()
    from qforecast.cli import main

    sys.exit(main(sys.argv[1:]))
