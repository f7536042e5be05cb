"""``python -m hochheat``: the same command line as the ``hochheat`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
