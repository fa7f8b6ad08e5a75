"""The paper's evaluation, one module per experiment (see DESIGN.md).

Every ``run_*`` returns a :class:`repro.table.Table`; every ``check_*_shape``
asserts the qualitative shape of the corresponding figure or claim.
:data:`EXPERIMENTS` maps each experiment id to the runner calls that
build its tables; the CLI and ``benchmarks/`` both read it.
"""

from .app_interference import check_app_interference_shape, run_app_interference
from .compression import check_compression_shape, run_compression
from .index import EXPERIMENTS, TableSpec
from .insitu_scale import (
    check_insitu_shape,
    run_insitu_backpressure,
    run_insitu_scaling,
)
from .scheduling import check_scheduling_shape, run_scheduling
from .spare_time import check_spare_time_shape, run_spare_time
from .throughput import check_throughput_shape, run_throughput
from .usability import check_usability_shape, run_usability
from .variability import (
    check_variability_shape,
    check_variability_statistics,
    run_variability,
)
from .weak_scaling import check_scaling_shape, run_weak_scaling

__all__ = [
    "EXPERIMENTS",
    "TableSpec",
    "run_weak_scaling",
    "check_scaling_shape",
    "run_variability",
    "check_variability_shape",
    "check_variability_statistics",
    "run_throughput",
    "check_throughput_shape",
    "run_spare_time",
    "check_spare_time_shape",
    "run_compression",
    "check_compression_shape",
    "run_scheduling",
    "check_scheduling_shape",
    "run_insitu_scaling",
    "run_insitu_backpressure",
    "check_insitu_shape",
    "run_usability",
    "check_usability_shape",
    "run_app_interference",
    "check_app_interference_shape",
]
