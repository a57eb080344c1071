"""Wall-clock benchmark of the repro engine: three workloads, one command.

Run ``python3 wallbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``wallbench/README.md`` for the workloads,
metrics, and the layer-to-metric table.
"""
