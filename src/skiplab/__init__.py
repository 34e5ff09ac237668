"""skiplab: a numerical laboratory for attention-block Jacobian conditioning
and the initialization that makes skipless transformer stacks trainable."""

__version__ = "0.1.0"

from .analysis import (concat_bound, gram_moments, layer_condition_profile,
                       perturbation_split, prop1_trial)
from .harness import (Dataset, TrainConfig, TrainLog, load_tensor_file,
                      optimizer_step, save_tensor_file, synth_task, train)
from .init import InitSpec, init_network, mimetic_qk, mlp_orthogonal, orthonormal_vo, truncated_normal
from .jacobian import (attention_input_jacobian, batch_param_jacobian,
                       block_chain_jacobian, finite_difference_jacobian,
                       logits_input_jacobian, mlp_input_jacobian, mlp_token_blocks,
                       sa_input_jacobian, sa_param_jacobian, softmax_jacobian)
from .linalg import (BudgetError, SvdConvergenceError, commutation_matrix,
                     commutation_permutation, condition_number, kron, unvec, vec)
from .model import (BlockParams, DivergenceError, ForwardTrace, ModelConfig,
                    NetworkParams, block_forward, network_forward, row_softmax,
                    self_attention)
