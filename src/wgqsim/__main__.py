"""``python -m wgqsim``: the same command line as ``python -m wgqsim.cli``."""

import sys

from .cli import main

sys.exit(main())
