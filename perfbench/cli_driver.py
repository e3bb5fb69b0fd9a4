"""Run one `jitterseed` command with spans around its calls into each layer.

Usage: python cli_driver.py SPANS_FILE OP_ID PARENT_SPAN_ID COMMAND [ARGS...]

The CLI code path is unchanged: the driver imports jitterseed.cli, replaces
the module attributes the CLI calls with timing wrappers and then calls
run_cli with the remaining arguments. Spans stay in memory and are written as
JSON to SPANS_FILE when the command has finished. The exit code is the CLI's.
"""

from __future__ import annotations

import importlib
import json
import sys

from spans import Tracer

# Modules each command reaches, imported inside the cli.import span so that a
# lazily imported layer is wrapped before the command calls it.
MODULES = {"fips": ("jitterseed.cli", "jitterseed.fips")}

TARGETS = (
    ("jitterseed.cli", "probe_resolution", "timer.probe_resolution"),
    ("jitterseed.cli", "collect_trace", "collector.collect_trace"),
    ("jitterseed.cli", "condition", "conditioner.condition"),
    ("jitterseed.cli", "mk0_stream", "conditioner.mk0_stream"),
    ("jitterseed.fips", "fips_pass_rate", "fips.fips_pass_rate"),
    ("jitterseed.fips", "fips_block_tests", "fips.fips_block_tests"),
)


def main(argv) -> int:
    spans_file, op, parent, cli_args = argv[0], argv[1], argv[2], argv[3:]
    tracer = Tracer(op=op, parent=parent)
    with tracer.span("cli.import"):
        for module in MODULES.get(cli_args[0], ("jitterseed.cli",)):
            importlib.import_module(module)
    targets = [t for t in TARGETS if t[0] in sys.modules]
    with tracer.patched(targets), tracer.span("cli.run"):
        code = sys.modules["jitterseed.cli"].run_cli(cli_args)
    with open(spans_file, "w") as handle:
        json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
