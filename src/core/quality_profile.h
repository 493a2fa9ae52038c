#ifndef DEEPMVI_CORE_QUALITY_PROFILE_H_
#define DEEPMVI_CORE_QUALITY_PROFILE_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "common/status.h"
#include "storage/data_source.h"
#include "tensor/mask.h"

namespace deepmvi {

/// Per-series snapshot of the training data distribution, computed at
/// Fit time and carried inside the checkpoint as a trailing versioned
/// "DMVQ" record (see trained_deepmvi.cc). The serving layer compares
/// live request inputs against these reference deciles (PSI / KS) to
/// detect distribution drift without ever touching the training data
/// again. Checkpoints written before this record existed simply end at
/// the parameter store; they load fine and report no profile.
struct QualityProfile {
  /// Number of interior decile edges stored per series (q = 0.1 .. 0.9).
  static constexpr int kNumDecileEdges = 9;

  struct Series {
    int64_t count = 0;    // Available cells at fit time.
    int64_t missing = 0;  // Missing cells at fit time.
    double mean = 0.0;    // Raw-value mean over available cells.
    double stddev = 0.0;  // Population stddev over available cells.
    double min = 0.0;
    double max = 0.0;
    /// Interior decile edges of the raw-value distribution (size
    /// kNumDecileEdges when count > 0, empty otherwise). Sketch
    /// estimates: deterministic, rank error O(n / sketch capacity).
    std::vector<double> decile_edges;
  };

  std::vector<Series> series;

  int num_series() const { return static_cast<int>(series.size()); }
  /// Overall training missing rate across all series; 0 when empty.
  double MissingRate() const;
};

/// Computes the profile with one single-threaded streaming pass over
/// `source` in fixed time stripes, observing available raw values per
/// series in ascending-time order. Identity normalization ((v - 0) / 1)
/// preserves value bits, and the fixed stripe size keeps the observation
/// sequence — hence the sketch state — bit-identical between in-core and
/// chunked sources and across training thread counts.
StatusOr<QualityProfile> ComputeQualityProfile(
    const storage::DataSource& source, const Mask& mask);

/// Appends the versioned "DMVQ" profile record to `os` (magic, version,
/// then per-series fields through nn/serialize primitives).
[[nodiscard]] Status AppendQualityProfileRecord(std::ostream& os,
                                                const QualityProfile& profile);

/// Reads the trailing profile record if the stream has one. Returns true
/// and fills `out` when a record was read; false on clean EOF (a legacy
/// profile-less checkpoint); an error Status on a partial magic, wrong
/// magic, unsupported version, a series count other than the model's
/// `num_series` (checked before anything is allocated), or truncated body.
[[nodiscard]] StatusOr<bool> ReadQualityProfileRecord(std::istream& is,
                                                      int num_series,
                                                      QualityProfile* out);

}  // namespace deepmvi

#endif  // DEEPMVI_CORE_QUALITY_PROFILE_H_
