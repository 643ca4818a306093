"""Make ``bench/`` importable the way ``python3 bench/run.py`` sees it."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
