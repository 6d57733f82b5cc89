#include "nn/init.h"

#include <cmath>

namespace adamgnn::nn {

tensor::Matrix GlorotUniform(size_t fan_in, size_t fan_out, util::Rng* rng) {
  if (rng == nullptr) return tensor::Matrix(fan_in, fan_out);
  const double a =
      std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  return tensor::Matrix::Uniform(fan_in, fan_out, -a, a, rng);
}

tensor::Matrix HeNormal(size_t fan_in, size_t fan_out, util::Rng* rng) {
  const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
  return tensor::Matrix::Gaussian(fan_in, fan_out, stddev, rng);
}

}  // namespace adamgnn::nn
