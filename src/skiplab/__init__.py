"""skiplab: a numerical laboratory for attention-block Jacobian conditioning
and the initialization that makes skipless transformer stacks trainable."""

__version__ = "0.1.0"
