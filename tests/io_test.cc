#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "data/io.h"
#include "data/presets.h"
#include "scenario/scenarios.h"
#include "testing/test_util.h"

namespace deepmvi {
namespace {

using testutil::TempPath;

TEST(IoTest, RoundTrip1D) {
  Matrix values = {{1.5, -2.25, 3.0}, {0.0, 4.5, -6.125}};
  DataTensor data = DataTensor::FromMatrix(values);
  const std::string path = TempPath("roundtrip_1d.csv");
  ASSERT_TRUE(WriteDataTensor(data, path).ok());

  StatusOr<DataTensor> loaded = ReadDataTensor(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_series(), 2);
  EXPECT_EQ(loaded->num_times(), 3);
  EXPECT_TRUE(loaded->values().ApproxEquals(values, 0.0));
}

TEST(IoTest, RoundTripMultidimPreservesDimensions) {
  Dimension stores{"store", {"a", "b"}};
  Dimension items{"item", {"x", "y", "z"}};
  Rng rng(1);
  DataTensor data({stores, items}, Matrix::RandomGaussian(6, 4, rng));
  const std::string path = TempPath("roundtrip_2d.csv");
  ASSERT_TRUE(WriteDataTensor(data, path).ok());

  StatusOr<DataTensor> loaded = ReadDataTensor(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_dims(), 2);
  EXPECT_EQ(loaded->dim(0).name, "store");
  EXPECT_EQ(loaded->dim(1).members[2], "z");
  EXPECT_TRUE(loaded->values().ApproxEquals(data.values(), 1e-15));
}

TEST(IoTest, MissingCellsWrittenAsNanAndReadBack) {
  Matrix values = {{1, 2, 3, 4}};
  DataTensor data = DataTensor::FromMatrix(values);
  Mask mask(1, 4);
  mask.set_missing(0, 1);
  mask.set_missing(0, 3);
  const std::string path = TempPath("with_missing.csv");
  ASSERT_TRUE(WriteDataTensor(data, path, &mask).ok());

  Mask loaded_mask;
  StatusOr<DataTensor> loaded = ReadDataTensor(path, &loaded_mask);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded_mask.missing(0, 1));
  EXPECT_TRUE(loaded_mask.missing(0, 3));
  EXPECT_TRUE(loaded_mask.available(0, 0));
  EXPECT_EQ(loaded->values()(0, 0), 1.0);
  EXPECT_EQ(loaded->values()(0, 1), 0.0);  // Stored as 0 under the mask.
}

TEST(IoTest, ReadsPlainCsvWithEmptyFieldsAsMissing) {
  const std::string path = TempPath("plain.csv");
  std::ofstream out(path);
  out << "1.0,,3.0\n4.0,5.0,nan\n";
  out.close();
  Mask mask;
  StatusOr<DataTensor> loaded = ReadDataTensor(path, &mask);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_series(), 2);
  EXPECT_TRUE(mask.missing(0, 1));
  EXPECT_TRUE(mask.missing(1, 2));
  EXPECT_EQ(mask.CountMissing(), 2);
}

TEST(IoTest, RejectsRaggedRows) {
  const std::string path = TempPath("ragged.csv");
  std::ofstream out(path);
  out << "1,2,3\n4,5\n";
  out.close();
  EXPECT_FALSE(ReadDataTensor(path).ok());
}

TEST(IoTest, RejectsNonNumeric) {
  const std::string path = TempPath("bad.csv");
  std::ofstream out(path);
  out << "1,hello,3\n";
  out.close();
  EXPECT_FALSE(ReadDataTensor(path).ok());
}

TEST(IoTest, RejectsDimensionMismatch) {
  const std::string path = TempPath("badshape.csv");
  std::ofstream out(path);
  out << "# dim:store=a|b\n# dim:item=x|y\n";  // Implies 4 series.
  out << "1,2\n3,4\n5,6\n";                    // Only 3 rows.
  out.close();
  EXPECT_FALSE(ReadDataTensor(path).ok());
}

TEST(IoTest, MissingFileFails) {
  EXPECT_FALSE(ReadDataTensor("/nonexistent/file.csv").ok());
  EXPECT_FALSE(ReadMask("/nonexistent/file.csv").ok());
}

TEST(IoTest, MaskRoundTrip) {
  Mask mask(3, 5);
  mask.set_missing(0, 0);
  mask.SetMissingRange(2, 1, 4);
  const std::string path = TempPath("mask.csv");
  ASSERT_TRUE(WriteMask(mask, path).ok());
  StatusOr<Mask> loaded = ReadMask(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(*loaded == mask);
}

TEST(IoTest, MaskRejectsNonBinary) {
  const std::string path = TempPath("badmask.csv");
  std::ofstream out(path);
  out << "1,0,2\n";
  out.close();
  EXPECT_FALSE(ReadMask(path).ok());
}

TEST(IoTest, PresetSurvivesRoundTripWithScenario) {
  DataTensor data = MakeDataset("AirQ", DatasetScale::kReduced, 9);
  ScenarioConfig scenario;
  scenario.kind = ScenarioKind::kMcar;
  scenario.percent_incomplete = 0.5;
  scenario.seed = 10;
  Mask mask = GenerateScenario(scenario, data.num_series(), data.num_times());
  const std::string path = TempPath("airq.csv");
  ASSERT_TRUE(WriteDataTensor(data, path, &mask).ok());

  Mask loaded_mask;
  StatusOr<DataTensor> loaded = ReadDataTensor(path, &loaded_mask);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded_mask == mask);
  // Available cells match exactly.
  for (int r = 0; r < data.num_series(); ++r) {
    for (int t = 0; t < data.num_times(); ++t) {
      if (mask.available(r, t)) {
        ASSERT_DOUBLE_EQ(loaded->values()(r, t), data.values()(r, t));
      }
    }
  }
}


TEST(IoTest, ReadsAnyStreamLikeAFile) {
  // An in-memory body (a served text/csv response, say) parses exactly
  // as the file WriteDataTensor would have written.
  Dimension stores{"store", {"a", "b"}};
  DataTensor data({stores}, Matrix{{1.5, -2.25}, {0.1, 4.5}});
  Mask mask(2, 2);
  mask.set_missing(1, 0);
  std::ostringstream text;
  WriteDataTensorToStream(data, text, &mask);
  const std::string path = TempPath("stream_twin.csv");
  ASSERT_TRUE(WriteDataTensor(data, path, &mask).ok());

  std::istringstream body(text.str());
  Mask body_mask, file_mask;
  StatusOr<DataTensor> from_body = ReadDataTensor(body, "body", &body_mask);
  StatusOr<DataTensor> from_file = ReadDataTensor(path, &file_mask);
  ASSERT_TRUE(from_body.ok()) << from_body.status().ToString();
  ASSERT_TRUE(from_file.ok());
  EXPECT_EQ(from_body->dim(0).members, stores.members);
  EXPECT_TRUE(from_body->values().ApproxEquals(from_file->values(), 0.0));
  EXPECT_TRUE(body_mask.missing(1, 0));
  EXPECT_EQ(body_mask.CountMissing(), file_mask.CountMissing());

  // Errors name the stream where a file read names the path.
  std::istringstream empty("");
  StatusOr<DataTensor> none = ReadDataTensor(empty, "body");
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().message(), "no data rows in body");
}

TEST(CsvSeriesReaderTest, StreamsRowsIdenticalToReadDataTensor) {
  Dimension stores{"store", {"a", "b"}};
  Dimension items{"item", {"x", "y"}};
  Matrix values = {{1.0, 2.5}, {3.0, -4.5}, {0.25, 6.0}, {7.5, 8.0}};
  DataTensor data({stores, items}, values);
  Mask mask(4, 2);
  mask.set_missing(1, 1);
  const std::string path = TempPath("stream.csv");
  ASSERT_TRUE(WriteDataTensor(data, path, &mask).ok());

  Mask loaded_mask;
  StatusOr<DataTensor> slurped = ReadDataTensor(path, &loaded_mask);
  ASSERT_TRUE(slurped.ok());

  StatusOr<CsvSeriesReader> reader = CsvSeriesReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<double> row;
  std::vector<uint8_t> missing;
  int r = 0;
  while (true) {
    StatusOr<bool> more = reader->NextRow(&row, &missing);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ASSERT_LT(r, 4);
    for (int t = 0; t < 2; ++t) {
      EXPECT_EQ(row[t], slurped->values()(r, t)) << r << "," << t;
      EXPECT_EQ(missing[t] != 0, loaded_mask.missing(r, t)) << r << "," << t;
    }
    ++r;
  }
  EXPECT_EQ(r, 4);
  EXPECT_EQ(reader->rows_read(), 4);
  EXPECT_EQ(reader->num_cols(), 2);
  // Dimension headers precede the data, so dims are complete.
  ASSERT_EQ(reader->dims().size(), 2u);
  EXPECT_EQ(reader->dims()[0].name, "store");
  EXPECT_EQ(reader->dims()[1].members, items.members);
}

TEST(CsvSeriesReaderTest, RejectsRaggedAndNonNumericRows) {
  const std::string path = TempPath("ragged_stream.csv");
  std::ofstream(path) << "1,2,3\n4,5\n";
  StatusOr<CsvSeriesReader> reader = CsvSeriesReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<double> row;
  std::vector<uint8_t> missing;
  ASSERT_TRUE(reader->NextRow(&row, &missing).ok());
  EXPECT_FALSE(reader->NextRow(&row, &missing).ok());

  std::ofstream(path, std::ios::trunc) << "1,pear,3\n";
  reader = CsvSeriesReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader->NextRow(&row, &missing).ok());
}

}  // namespace
}  // namespace deepmvi
