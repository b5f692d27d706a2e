"""In-memory spans, and one CLI call split into its phases.

A span is [name, start, end, parent index]; times are `time.perf_counter()`
seconds, which on Linux read CLOCK_MONOTONIC and so line up across the
processes of one run (bench.py's spawn time and a worker's first line).
Spans are kept in memory and handed to bench.py when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = self.add(name, time.perf_counter(), None)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def add(self, name: str, start: float, end: float | None) -> int:
        """Record a span under the open span, if any."""
        parent = self._open[-1] if self._open else None
        self.spans.append([name, start, end, parent])
        return len(self.spans) - 1


def cli_phases(cli, argv, tracer: Tracer):
    """One CLI call as build_parser, parse, handler and render spans.

    Returns (exit status, stdout text, stderr text) as `cli.dispatch` does.
    The handler and render phases reach the CLI's internals (`REGISTRY`,
    `CommandResult`, `PROVENANCE`); when those are gone, the call runs as
    one `cli.dispatch` span and the phase metrics read as unavailable.
    """
    if not all(hasattr(cli, name) for name in ("build_parser", "REGISTRY", "CommandResult", "PROVENANCE")):
        with tracer.span("cli.dispatch"):
            return cli.dispatch(argv)
    with tracer.span("cli.build_parser"):
        parser = cli.build_parser()
    with tracer.span("cli.parse"):
        args = parser.parse_args(argv)
    with tracer.span("cli.handler"):
        out = cli.REGISTRY[args.op][1](args)
    with tracer.span("cli.render"):
        result, inputs, marker = out if len(out) == 3 else (*out, "")
        record = cli.CommandResult(args.op, inputs, result, cli.PROVENANCE[args.op] + marker)
        text = record.render(args.format) + "\n"
    return 0, text, ""
