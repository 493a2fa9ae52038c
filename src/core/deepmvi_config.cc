#include "core/deepmvi_config.h"

#include <climits>
#include <cmath>
#include <sstream>
#include <string>

#include "core/temporal_transformer.h"
#include "nn/serialize.h"

namespace deepmvi {

Status DeepMviConfig::Validate() const {
  struct Bound {
    const char* name;
    int value;
    int min;
    int max;
  };
  for (const Bound& bound : {
           Bound{"filters", filters, 1, 128},
           Bound{"window", window, 0, 512},
           Bound{"num_heads", num_heads, 1, 32},
           Bound{"embedding_dim", embedding_dim, 1, 256},
           Bound{"top_siblings", top_siblings, 1, nn::kMaxTableSeries},
           Bound{"max_epochs", max_epochs, 0, INT_MAX},
           Bound{"samples_per_epoch", samples_per_epoch, 0, INT_MAX},
           Bound{"batch_size", batch_size, 1, INT_MAX},
           Bound{"max_context", max_context, 1,
                 TemporalTransformer::kMaxTableContext}}) {
    if (bound.value < bound.min || bound.value > bound.max) {
      return Status::InvalidArgument(
          std::string("DeepMviConfig::") + bound.name + " " +
          std::to_string(bound.value) +
          (bound.max == INT_MAX
               ? " must be >= " + std::to_string(bound.min)
               : " outside [" + std::to_string(bound.min) + ", " +
                     std::to_string(bound.max) + "]"));
    }
  }
  // Written so that NaN, which fails every comparison, fails each check.
  struct RealBound {
    const char* name;
    double value;
    bool ok;
    const char* range;
  };
  for (const RealBound& bound : {
           RealBound{"kernel_gamma", kernel_gamma,
                     std::isfinite(kernel_gamma) && kernel_gamma > 0.0,
                     "must be finite and > 0"},
           RealBound{"learning_rate", learning_rate,
                     std::isfinite(learning_rate) && learning_rate > 0.0,
                     "must be finite and > 0"},
           RealBound{"validation_fraction", validation_fraction,
                     validation_fraction >= 0.0 && validation_fraction <= 1.0,
                     "outside [0, 1]"}}) {
    if (!bound.ok) {
      std::ostringstream message;
      message << "DeepMviConfig::" << bound.name << " " << bound.value << " "
              << bound.range;
      return Status::InvalidArgument(message.str());
    }
  }
  return Status::OK();
}

}  // namespace deepmvi
