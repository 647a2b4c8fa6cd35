"""Entry point for ``python -m repro`` (see :mod:`repro.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
