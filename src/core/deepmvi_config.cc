#include "core/deepmvi_config.h"

#include <climits>
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
                 TemporalTransformer::kMaxTableContext},
           Bound{"num_threads", num_threads, 0, INT_MAX}}) {
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
  return Status::OK();
}

}  // namespace deepmvi
