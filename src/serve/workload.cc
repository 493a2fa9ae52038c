#include "serve/workload.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace deepmvi {
namespace serve {

Status CheckQueryInRange(const WorkloadQuery& query, int num_series,
                         int num_times) {
  if (query.row < 0 || query.row >= num_series) {
    return Status::InvalidArgument(
        "query.row " + std::to_string(query.row) + " outside [0, " +
        std::to_string(num_series) + ")");
  }
  if (query.t_start < 0 || query.t_start >= num_times) {
    return Status::InvalidArgument(
        "query.t_start " + std::to_string(query.t_start) + " outside [0, " +
        std::to_string(num_times) + ")");
  }
  const int64_t end = int64_t{query.t_start} + query.block_len;
  if (query.block_len < 1 || end > num_times) {
    return Status::InvalidArgument(
        "query.block_len " + std::to_string(query.block_len) + ": block [" +
        std::to_string(query.t_start) + ", " + std::to_string(end) +
        ") not inside [0, " + std::to_string(num_times) + ")");
  }
  return Status::OK();
}

StatusOr<std::vector<WorkloadQuery>> ReadWorkload(const std::string& path,
                                                  int num_series,
                                                  int num_times) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path + " for reading");
  std::vector<WorkloadQuery> queries;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Tolerate CRLF files and trailing whitespace: getline only strips \n,
    // and a stray \r would otherwise fail the strict field count below.
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ' ||
                             line.back() == '\t')) {
      line.pop_back();
    }
    if (line.empty() || line[0] == '#') continue;
    WorkloadQuery query;
    char extra = '\0';
    if (std::sscanf(line.c_str(), "%d,%d,%d%c", &query.row, &query.t_start,
                    &query.block_len, &extra) != 3) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(line_number) +
          ": expected `row,t_start,block_len`, got: " + line);
    }
    if (Status range = CheckQueryInRange(query, num_series, num_times);
        !range.ok()) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_number) +
                                     ": " + range.message() + " in: " + line);
    }
    queries.push_back(query);
  }
  return queries;
}

Status WriteWorkload(const std::vector<WorkloadQuery>& queries,
                     const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << "# row,t_start,block_len\n";
  for (const WorkloadQuery& query : queries) {
    out << query.row << "," << query.t_start << "," << query.block_len << "\n";
  }
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

std::vector<WorkloadQuery> SynthesizeWorkload(int count, int max_block_len,
                                              int num_series, int t_len,
                                              uint64_t seed) {
  DMVI_CHECK_GT(num_series, 0);
  DMVI_CHECK_GT(t_len, 0);
  Rng rng(seed);
  std::vector<WorkloadQuery> queries;
  queries.reserve(count);
  for (int i = 0; i < count; ++i) {
    WorkloadQuery query;
    query.row = rng.UniformInt(num_series);
    query.block_len = 1 + rng.UniformInt(std::max(1, max_block_len));
    query.block_len = std::min(query.block_len, t_len);
    query.t_start = rng.UniformInt(t_len - query.block_len + 1);
    queries.push_back(query);
  }
  return queries;
}

Mask ApplyQuery(const Mask& base, const WorkloadQuery& query) {
  Mask out = base;
  if (query.row >= 0 && query.row < base.rows()) {
    out.SetMissingRange(query.row, query.t_start,
                        query.t_start + query.block_len);
  }
  return out;
}

ImputationRequest MakeQueryRequest(std::shared_ptr<const DataTensor> data,
                                   const Mask& base,
                                   const WorkloadQuery& query) {
  ImputationRequest request;
  request.data = std::move(data);
  request.mask = ApplyQuery(base, query);
  return request;
}

}  // namespace serve
}  // namespace deepmvi
