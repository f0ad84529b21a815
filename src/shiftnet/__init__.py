"""Shift-based CNN micro-framework.

The shift operation translates each channel of a feature map by a fixed
per-channel offset -- a zero-parameter, zero-FLOP stand-in for spatial
convolution whose spatial mixing is then learned by surrounding 1x1
convolutions. This package provides the shift kernels (including a fused
shift+1x1), the trainable conv-shift-conv blocks, residual and shift-network
builders, exact parameter/FLOP accounting, a small SGD training pipeline,
channel-contribution diagnostics and a microbenchmark harness.
"""

from .accounting import (CostReport, arithmetic_intensity, cost_report,
                         count_flops, count_params, reduction_report)
from .blocks import (BasicBlock, CscBlock, CscConfig, downsample_combine,
                     round_half_up)
from .nets import (Network, build_by_name, build_resnet, build_shiftnet,
                   build_shiftresnet, dump_config, parse_config, rebuild,
                   reduce_resnet, scaled_resnet)
from .ops import BatchNormState, ConvKernel
from .pipeline import (Dataset, TrainLog, TrainSchedule, evaluate,
                       load_checkpoint, load_cifar10, save_checkpoint,
                       synth_dataset, train)
from .shift import (ShiftSpec, fused_shift_pointwise, make_shift_spec,
                    one_hot_depthwise_kernel, shift_backward, shift_forward)
from .tensor import InitPolicy, create

__version__ = "0.1.0"
