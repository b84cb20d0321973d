"""Set-up op: import spinbath in a fresh interpreter and run one op.

    python3 bench/setup_op.py WORKLOAD

``run.py`` times this whole process, start to exit, as ``setup_s``: the
cost a command-line user pays on every invocation.  The op is the
workload's fixed reference op, so set-up time does not depend on the
seed.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402  (needs the path above)

workloads.run_op(sys.argv[1], workloads.REFERENCE[sys.argv[1]])
