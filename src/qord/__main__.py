"""``python -m qord``: the same command line as the ``qord`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
