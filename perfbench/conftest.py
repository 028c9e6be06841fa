import sys
from pathlib import Path

# The output checks call into scarsim; make the sources importable.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
