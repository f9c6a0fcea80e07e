"""Runtime executors (paper Sections 3 and 8.2).

Four engines over one event stream, all producing per-(window, key,
query) COUNT(*) of matched event sequences:

- ``sharon``    — Sharon executor: online, shared per a sharing plan;
                  with an empty plan (``plan=None``) it is A-Seq, the
                  online non-shared method (chain kernel per query).
- ``twostep``   — Flink-like (non-shared) and SPASS-like (shared
                  construction) two-step baselines, pure Spark SQL joins.
- ``aseq_sql``  — A-Seq expressed as chained Catalyst window functions
                  (no Python kernel); used by oracle tests.

``windows`` assigns sliding windows, ``kernels`` holds the numpy math,
``streaming`` the chunked micro-batch driver, ``metrics`` the modeled
memory accounting.
"""
