"""Kinematics-guided dynamic Gaussian splatting on motion-blurred monocular
frames: differentiable software renderer, motion blur as the exposure's
second moment of each covariance, dynamic-static decomposition and
training. The synthetic blur oracle is the benchmark's, in
perfbench/reference.py, not part of kgs."""

__version__ = "0.1.0"
