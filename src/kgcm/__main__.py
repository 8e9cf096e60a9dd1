"""``python -m kgcm``: the same command line as the ``kgcm`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
