"""``python -m vclab``: the ``vclab`` command line, run from a checkout as
``PYTHONPATH=src python -m vclab ...``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
