// Weight initialization schemes.

#ifndef ADAMGNN_NN_INIT_H_
#define ADAMGNN_NN_INIT_H_

#include "tensor/matrix.h"
#include "util/random.h"

namespace adamgnn::nn {

/// Glorot/Xavier uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out)).
/// The default for all GNN layer weights (matches PyTorch Geometric). A
/// null `rng` gives zeros and draws nothing, for layers whose values are
/// copied in right after construction (see AdamGnn::CopyWeightsFrom).
tensor::Matrix GlorotUniform(size_t fan_in, size_t fan_out, util::Rng* rng);

/// He/Kaiming normal: N(0, 2/fan_in); used ahead of ReLU-heavy MLPs.
tensor::Matrix HeNormal(size_t fan_in, size_t fan_out, util::Rng* rng);

}  // namespace adamgnn::nn

#endif  // ADAMGNN_NN_INIT_H_
