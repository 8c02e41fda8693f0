"""Classification-by-retrieval toolkit for encrypted network traffic.

Flows in, verdicts out: parse captures into bidirectional flows, extract a
fixed 183-slot statistical feature vector per flow, index labeled vectors in
an exact nearest-neighbor store, and classify by majority vote with
distance-based rejection and few-shot registration of new classes. A
from-scratch random forest serves as the comparison baseline and as the
second stage of the combined pipeline.
"""

# Only flowbench/tests/test_bench.py reads these two names, and it alone
# keeps cbr.vote and cbr.Neighbor, which no command calls; all four go once
# that test stops reading them (ROADMAP item 3).
from . import harness
from .cbr import vote

__version__ = "0.1.0"
