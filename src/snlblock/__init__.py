"""Sparse non-local attention block with a dense reference, analytic
gradients, a finite-difference oracle, a toy trainer and benchmarks."""

from .tensor import (SINGLE, DOUBLE, ConfigError, ConsistencyError,
                     DimensionError, NumericError, MultiplyCounter,
                     conv1x1, matmul, softmax_rows)
from .tensorio import read_tensor, write_tensor
from .dense import (NlParams, NlActivations, dense_affinity, dense_aggregate,
                    fuse_residual, nl_forward, nl_backward)
from .sampling import (SamplingPlan, bilinear_aggregate, bilinear_sample,
                       bilinear_sample_backward, query_chunks, sampling_plan)
from .sparse import (GridSpec, Shape2D, SnlParams, SnlActivations, apply_offsets,
                     base_grid, full_coverage_grid, offset_head, snl_backward,
                     snl_core, snl_forward)
from .gradcheck import GradReport, central_diff, check_block
from .bench import (BenchPoint, dense_core_multiplies, fit_scaling,
                    run_bench, snl_core_multiplies)
from .trainer import (BeaconSample, DivergenceError, TrainConfig, TrainLog,
                      gen_beacon_dataset, poly_lr, sgd_step, train)

__version__ = "0.1.0"
