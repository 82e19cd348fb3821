"""Entry point for ``python -m repro``."""

import sys
import time

# Taken before the CLI (and numpy) load: ``repro serve`` reports its boot
# time from here.
_STARTED = time.perf_counter()

from .cli import main  # noqa: E402

sys.exit(main(started=_STARTED))
