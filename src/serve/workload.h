#ifndef DEEPMVI_SERVE_WORKLOAD_H_
#define DEEPMVI_SERVE_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "serve/service.h"

namespace deepmvi {
namespace serve {

/// One replayable imputation query against a served dataset: hide the
/// block [t_start, t_start + block_len) of series `row` and ask the model
/// to fill it (on top of whatever the base mask already misses). This is
/// the workload unit dmvi_serve replays to measure serving latency.
struct WorkloadQuery {
  int row = 0;
  int t_start = 0;
  int block_len = 1;
};

/// OK when `query` hides cells of a num_series x num_times dataset only:
/// 0 <= row < num_series, block_len >= 1 and [t_start, t_start +
/// block_len) inside [0, num_times), the end computed in 64 bits. Else
/// InvalidArgument naming the field (query.row, query.t_start or
/// query.block_len). Served queries and workload lines both pass it.
Status CheckQueryInRange(const WorkloadQuery& query, int num_series,
                         int num_times);

/// Workload file format: one `row,t_start,block_len` triple per line;
/// blank lines and lines starting with '#' are skipped. Each query must
/// pass CheckQueryInRange against `num_series` x `num_times` (the served
/// dataset's shape), else InvalidArgument naming the line.
StatusOr<std::vector<WorkloadQuery>> ReadWorkload(const std::string& path,
                                                  int num_series,
                                                  int num_times);
Status WriteWorkload(const std::vector<WorkloadQuery>& queries,
                     const std::string& path);

/// Deterministic random workload over an n x t_len dataset: uniformly
/// placed blocks of length 1..max_block_len.
std::vector<WorkloadQuery> SynthesizeWorkload(int count, int max_block_len,
                                              int num_series, int t_len,
                                              uint64_t seed);

/// The base availability mask with the query block additionally missing
/// (clamped to the mask's bounds).
Mask ApplyQuery(const Mask& base, const WorkloadQuery& query);

/// Builds the service request for one query: the shared dataset, base
/// mask plus the query block.
ImputationRequest MakeQueryRequest(const std::string& model,
                                   std::shared_ptr<const DataTensor> data,
                                   const Mask& base,
                                   const WorkloadQuery& query);

}  // namespace serve
}  // namespace deepmvi

#endif  // DEEPMVI_SERVE_WORKLOAD_H_
