"""``python -m desir``: the same command line as the ``desir`` script."""
import sys

from .cli import main

sys.exit(main())
