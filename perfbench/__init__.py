"""End-to-end benchmark of the MOT tracking service.

Three closed-loop serve workloads (:mod:`perfbench.workloads`) driven
by one load process (:mod:`perfbench.driver`); a traced variant wraps
the public calls of each layer and reports per-layer numbers
(:mod:`perfbench.layers`). ``python3 perfbench/run.py --help`` is the
entry point; :mod:`perfbench.steady` repeats it over seeds and reports
the run-to-run spread.
"""
