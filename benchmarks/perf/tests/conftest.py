"""Make the benchmark's modules importable by bare name, as they are
when ``run.py`` runs as a script."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
