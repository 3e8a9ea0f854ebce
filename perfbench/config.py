"""Where the benchmark finds the program, and its workload names.

Imports nothing from `twovalued`, so run.py can check the sources before
anything is loaded from them.
"""

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# the environment of every child process: twovalued is imported from SRC
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
WORKLOADS = ("library", "session")
