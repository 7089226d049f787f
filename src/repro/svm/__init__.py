"""Parallel and scalable Support Vector Machines (paper ref [16]).

Sec. III: "a more robust classifier such as a parallel and scalable SVM
open-source package that we developed with MPI for CPUs and used to speed
up the classification of RS images".  This package rebuilds that stack:

* :mod:`repro.svm.kernels` — the RBF kernel,
* :mod:`repro.svm.smo` — a from-scratch SMO solver (binary SVC),
* :mod:`repro.svm.cascade` — the cascade SVM (Graf et al.) parallelised
  over :mod:`repro.mpi`: ranks train on partitions, support vectors merge
  up a binary tree — the strong-scaling pattern of the CM experiments (E4).
"""

from repro.svm.kernels import rbf_kernel
from repro.svm.smo import SVC
from repro.svm.cascade import CascadeSVM, cascade_train

__all__ = [
    "rbf_kernel",
    "SVC",
    "CascadeSVM",
    "cascade_train",
]
