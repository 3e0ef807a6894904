"""`python -m closurekernels`: `cli.run`, which ends the process with
`os._exit` once stdout and stderr are flushed, skipping interpreter
teardown (it exits through `sys.exit` under `python -X dev`)."""

from .cli import run

run()
