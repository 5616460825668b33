"""``python -m symgeo``: the ``symgeo`` command line."""

import sys

from .cli import main

sys.exit(main())
