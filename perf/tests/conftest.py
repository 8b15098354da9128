import os
import sys

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(PERF), "src")

for path in (SRC, PERF):
    if path not in sys.path:
        sys.path.insert(0, path)
