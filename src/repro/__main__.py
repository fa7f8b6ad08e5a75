"""Entry point for ``python -m repro``."""

import gc
import sys

from .cli import main

# The import-time heap lives until exit; spare the collector's passes over it.
gc.freeze()
sys.exit(main())
