import sys
from pathlib import Path

# The benchmark runs as a script from perfbench/, so its modules import flat.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
