"""The repo benchmark: five workloads, end-to-end and per-layer metrics.

``python3 -m bench --workload NAME --seed N --seconds S --trace 0|1`` is one
run (the form ``BENCHMARK.json`` names); without ``--workload`` the same
command runs every workload in interleaved rounds plus one traced pass.
See ``bench/README.md``.
"""
