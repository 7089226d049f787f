"""repro — reproduction of *Practice and Experience in using Parallel and
Scalable Machine Learning with Heterogenous Modular Supercomputing
Architectures* (Riedel et al., 2021).

The package rebuilds the paper's full stack as a laptop-runnable simulation:

==================  =========================================================
``repro.simnet``    discrete-event engine, interconnect topologies, alpha-beta
                    collective cost models
``repro.core``      the MSA itself: modules (CM/ESB/DAM/SSSM/NAM/QM), DEEP
                    and JUWELS presets, heterogeneous workload scheduling,
                    energy accounting
``repro.mpi``       in-process SPMD MPI (mpi4py-flavoured) with real
                    collective algorithms and simulated clocks, plus the
                    FPGA Global Collective Engine
``repro.storage``   Lustre-like parallel filesystem, Network Attached
                    Memory, DAM memory tiers
``repro.ml``        NumPy autograd DL framework (layers, GRU, ResNet,
                    COVID-Net, optimisers, data pipeline)
``repro.distributed``  Horovod-style data parallelism, DeepSpeed-ZeRO-style
                    sharding, the Fig. 3 scaling performance model
``repro.svm``       SMO + MPI cascade SVM (the paper's parallel SVM, [16])
``repro.quantum``   simulated quantum annealer (2000Q / Advantage budgets)
                    and the QUBO SVM with ensembles ([10], [11])
``repro.analytics`` mini-Spark RDD engine + MLlib-like algorithms (DAM)
``repro.datasets``  synthetic BigEarthNet / COVIDx / MIMIC-III stand-ins
``repro.workflows`` container/Jupyter interoperability and cloud
                    cost models
==================  =========================================================

Every line runs in a ``repro`` command, a ``repro bench`` case, the
wall-clock benchmark or a tested example (``tests/test_line_roots.py``,
``tests/test_reachability.py``); a paper unit returns only as a
``paper`` bench case whose ``expect`` states the claim it reproduces.
See ``DESIGN.md`` for the substitution table and per-experiment index, and
``EXPERIMENTS.md`` for paper-vs-measured results.
"""

__version__ = "1.0.0"

__all__ = ["simnet", "core", "mpi", "storage", "ml", "distributed", "svm",
           "quantum", "analytics", "datasets", "workflows"]
