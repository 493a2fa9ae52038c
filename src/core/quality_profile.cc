#include "core/quality_profile.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "nn/serialize.h"
#include "obs/quantile_sketch.h"

namespace deepmvi {
namespace {

// Trailing checkpoint record: magic + version, then the body below.
constexpr char kProfileMagic[4] = {'D', 'M', 'V', 'Q'};
constexpr uint32_t kProfileVersion = 1;

// Fixed stripe length for the streaming pass. The constant (not the
// source's chunk layout) defines the read schedule, so in-core and
// chunked sources observe identical value sequences.
constexpr int kStripeLen = 4096;

}  // namespace

double QualityProfile::MissingRate() const {
  int64_t cells = 0;
  int64_t missing = 0;
  for (const Series& s : series) {
    cells += s.count + s.missing;
    missing += s.missing;
  }
  return cells > 0 ? static_cast<double>(missing) / static_cast<double>(cells)
                   : 0.0;
}

StatusOr<QualityProfile> ComputeQualityProfile(
    const storage::DataSource& source, const Mask& mask) {
  const int num_series = source.num_series();
  const int num_times = source.num_times();
  if (mask.rows() != num_series || mask.cols() != num_times) {
    return Status::InvalidArgument("quality profile: mask shape mismatch");
  }

  // Identity stats make the window's (v - mean) / stddev a bit-preserving
  // no-op on finite values, so the profile summarizes raw values through
  // the same windowed read path training uses.
  DataTensor::NormalizationStats identity;
  identity.mean.assign(static_cast<size_t>(num_series), 0.0);
  identity.stddev.assign(static_cast<size_t>(num_series), 1.0);
  StatusOr<std::unique_ptr<storage::WindowReader>> reader =
      source.MakeReader(identity);
  if (!reader.ok()) return reader.status();

  std::vector<obs::DistributionSummary> summaries(
      static_cast<size_t>(num_series));
  std::vector<int64_t> available(static_cast<size_t>(num_series), 0);
  for (int t0 = 0; t0 < num_times; t0 += kStripeLen) {
    const int len = std::min(kStripeLen, num_times - t0);
    StatusOr<ValueWindow> window = (*reader)->Read(t0, len);
    if (!window.ok()) return window.status();
    for (int r = 0; r < num_series; ++r) {
      for (int t = t0; t < t0 + len; ++t) {
        if (mask.available(r, t)) {
          ++available[static_cast<size_t>(r)];
          summaries[static_cast<size_t>(r)].Observe((*window)(r, t));
        }
      }
    }
  }

  QualityProfile profile;
  profile.series.resize(static_cast<size_t>(num_series));
  for (int r = 0; r < num_series; ++r) {
    const obs::DistributionSummary& summary =
        summaries[static_cast<size_t>(r)];
    QualityProfile::Series& out = profile.series[static_cast<size_t>(r)];
    out.count = available[static_cast<size_t>(r)];
    out.missing = static_cast<int64_t>(num_times) - out.count;
    out.mean = summary.mean();
    out.stddev = summary.stddev();
    out.min = summary.min();
    out.max = summary.max();
    if (summary.count() > 0) {
      out.decile_edges.reserve(QualityProfile::kNumDecileEdges);
      for (int d = 1; d <= QualityProfile::kNumDecileEdges; ++d) {
        out.decile_edges.push_back(summary.sketch().Quantile(d / 10.0));
      }
    }
  }
  return profile;
}

Status AppendQualityProfileRecord(std::ostream& os,
                                  const QualityProfile& profile) {
  os.write(kProfileMagic, sizeof(kProfileMagic));
  nn::WritePod(os, kProfileVersion);
  nn::WritePod(os, static_cast<int64_t>(profile.series.size()));
  for (const QualityProfile::Series& s : profile.series) {
    nn::WritePod(os, s.count);
    nn::WritePod(os, s.missing);
    nn::WritePod(os, s.mean);
    nn::WritePod(os, s.stddev);
    nn::WritePod(os, s.min);
    nn::WritePod(os, s.max);
    nn::WritePod(os, static_cast<int32_t>(s.decile_edges.size()));
    for (double edge : s.decile_edges) nn::WritePod(os, edge);
  }
  if (!os) return Status::IoError("write failed for quality profile record");
  return Status::OK();
}

StatusOr<bool> ReadQualityProfileRecord(std::istream& is, int num_series,
                                        QualityProfile* out) {
  char magic[4];
  is.read(magic, sizeof(magic));
  if (is.gcount() == 0) return false;  // Clean EOF: legacy checkpoint.
  if (is.gcount() != sizeof(magic) ||
      std::memcmp(magic, kProfileMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument(
        "corrupt file: trailing bytes are not a quality profile record");
  }
  uint32_t version = 0;
  if (!nn::ReadPod(is, &version)) {
    return Status::IoError("truncated file: quality profile version missing");
  }
  if (version != kProfileVersion) {
    return Status::InvalidArgument("unsupported quality profile version " +
                                   std::to_string(version));
  }
  int64_t count = 0;
  if (!nn::ReadPod(is, &count)) {
    return Status::IoError("truncated file: quality profile header missing");
  }
  if (count != num_series) {
    return Status::InvalidArgument(
        "corrupt file: quality profile covers " + std::to_string(count) +
        " series but the model has " + std::to_string(num_series));
  }
  QualityProfile profile;
  profile.series.resize(static_cast<size_t>(num_series));
  for (QualityProfile::Series& s : profile.series) {
    int32_t num_edges = 0;
    if (!nn::ReadPod(is, &s.count) || !nn::ReadPod(is, &s.missing) ||
        !nn::ReadPod(is, &s.mean) || !nn::ReadPod(is, &s.stddev) ||
        !nn::ReadPod(is, &s.min) || !nn::ReadPod(is, &s.max) ||
        !nn::ReadPod(is, &num_edges)) {
      return Status::IoError("truncated file: quality profile series missing");
    }
    if (num_edges < 0 || num_edges > 1024) {
      return Status::InvalidArgument(
          "corrupt file: implausible quality profile edge count " +
          std::to_string(num_edges));
    }
    s.decile_edges.resize(static_cast<size_t>(num_edges));
    for (double& edge : s.decile_edges) {
      if (!nn::ReadPod(is, &edge)) {
        return Status::IoError("truncated file: quality profile edges missing");
      }
    }
  }
  *out = std::move(profile);
  return true;
}

}  // namespace deepmvi
