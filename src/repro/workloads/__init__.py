"""Guest workloads: SPEC CINT/CFP analogs and real-world analogs."""

from .realworld import REALWORLD_WORKLOADS
from .spec import SPEC_WORKLOADS, Workload  # noqa: F401 - perfbench imports it
from .specfp import SPECFP_WORKLOADS

ALL_WORKLOADS = {**SPEC_WORKLOADS, **SPECFP_WORKLOADS,
                 **REALWORLD_WORKLOADS}
