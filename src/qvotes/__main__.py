"""``python -m qvotes``: the ``qvotes`` command line."""

import sys

from .cli import main

sys.exit(main())
