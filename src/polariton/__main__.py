"""``python -m polariton <command>``: the command-line interface of
:mod:`polariton.cli`, also from a source tree on ``PYTHONPATH``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
