"""Run ``streamreg serve`` in this process, optionally with tracing.

Usage: python3 perfbench/serve.py [--trace-out PATH] [serve arguments...]

With ``--trace-out`` the tracer is installed when the process receives
SIGUSR1 (it then prints ``tracing on``), so one server can be measured first
untraced and then traced.  On exit (SIGINT) every span is written to PATH.
"""

import signal
import sys

import common  # noqa: F401  (pins BLAS, selects the checkout's src/)


def main(argv):
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from streamreg import cli

    tracer = None
    if trace_out is not None:
        from tracer import Tracer

        tracer = Tracer()

        def start_tracing(signum, frame):
            tracer.install()
            print("tracing on", flush=True)

        signal.signal(signal.SIGUSR1, start_tracing)
    try:
        return cli.main(["serve", *argv])
    finally:
        if tracer is not None and tracer.installed:
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
