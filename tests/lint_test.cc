// Self-tests for the repo-invariant linter (tools/lint): golden bad
// fixtures must trip exactly their rule, golden good fixtures must lint
// clean, and — the teeth — the real tree must have zero violations.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "tools/lint/lint.h"

namespace deepmvi {
namespace {

namespace fs = std::filesystem;
using lint::LintFileContents;
using lint::LintTree;
using lint::Violation;

std::string ReadFixture(const std::string& name) {
  const fs::path path = fs::path(DMVI_LINT_FIXTURE_DIR) / name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::map<std::string, int> CountByRule(const std::vector<Violation>& found) {
  std::map<std::string, int> counts;
  for (const Violation& violation : found) ++counts[violation.rule];
  return counts;
}

std::string Describe(const std::vector<Violation>& found) {
  std::string out;
  for (const Violation& violation : found) {
    out += lint::FormatViolation(violation) + "\n";
  }
  return out;
}

TEST(LintTest, NakedMutexFixtureTripsSyncPrimitiveRule) {
  const std::vector<Violation> found = LintFileContents(
      "src/fake/naked_mutex.cc", ReadFixture("bad/naked_mutex.cc"));
  const auto counts = CountByRule(found);
  // Both includes, the lock_guard line, and the two member lines.
  EXPECT_EQ(counts.at("sync-primitive"), 5) << Describe(found);
  EXPECT_EQ(counts.size(), 1u) << Describe(found);
}

TEST(LintTest, RawRngFixtureTripsRngRule) {
  const std::vector<Violation> found = LintFileContents(
      "src/fake/raw_rng.cc", ReadFixture("bad/raw_rng.cc"));
  const auto counts = CountByRule(found);
  // The engine line, the random_device line, and the rand() line
  // (<random> itself stays legal: distributions are fine over Rng).
  EXPECT_EQ(counts.at("raw-rng"), 3) << Describe(found);
  EXPECT_EQ(counts.size(), 1u) << Describe(found);
}

TEST(LintTest, IostreamFixtureTripsOnlyInLibraryCode) {
  const std::string contents = ReadFixture("bad/iostream_write.cc");
  const std::vector<Violation> in_src =
      LintFileContents("src/fake/iostream_write.cc", contents);
  const auto counts = CountByRule(in_src);
  // The include, the cout line, and the cerr line.
  EXPECT_EQ(counts.at("iostream"), 3) << Describe(in_src);
  // The same bytes under tools/ are legal: CLIs print.
  EXPECT_TRUE(LintFileContents("tools/iostream_write.cc", contents).empty());
}

TEST(LintTest, UncheckedParseFixtureTripsOnlyUnderTools) {
  const std::string contents = ReadFixture("bad/unchecked_parse.cc");
  const std::vector<Violation> in_tools =
      LintFileContents("tools/unchecked_parse.cc", contents);
  const auto counts = CountByRule(in_tools);
  // The atoi, atol, atoll and atof lines.
  EXPECT_EQ(counts.at("unchecked-parse"), 4) << Describe(in_tools);
  EXPECT_EQ(counts.size(), 1u) << Describe(in_tools);
  // The rule covers flag parsing in the tools, not library code.
  EXPECT_TRUE(
      LintFileContents("src/fake/unchecked_parse.cc", contents).empty());
}

TEST(LintTest, LayerCycleFixtureTripsDagRule) {
  const std::string contents = ReadFixture("bad/layer_cycle.cc");
  const std::vector<Violation> upward =
      LintFileContents("src/tensor/layer_cycle.cc", contents);
  const auto counts = CountByRule(upward);
  // serve/ and net/ are above tensor; common/ is always reachable.
  EXPECT_EQ(counts.at("layer-include"), 2) << Describe(upward);
  // The top layer may include everything the fixture names.
  EXPECT_TRUE(
      LintFileContents("src/net/layer_cycle.cc", contents).empty());
}

TEST(LintTest, GoodFixturesLintClean) {
  for (const char* name : {"good/clean.cc", "good/exempted.cc"}) {
    const std::vector<Violation> found =
        LintFileContents("src/storage/fixture.cc", ReadFixture(name));
    EXPECT_TRUE(found.empty()) << name << ":\n" << Describe(found);
  }
}

TEST(LintTest, MissingNodiscardIsReported) {
  // A fake repo whose status.h lost the attribute.
  const fs::path root =
      fs::temp_directory_path() / "dmvi_lint_test_fake_repo";
  fs::create_directories(root / "src" / "common");
  std::ofstream(root / "src" / "common" / "status.h")
      << "class Status {};\n";
  const std::vector<Violation> found = LintTree(root.string(), {});
  const auto counts = CountByRule(found);
  EXPECT_EQ(counts.at("status-nodiscard"), 2) << Describe(found);
  fs::remove_all(root);
}

// The teeth: the real tree must be invariant-clean. A failure here names
// the file and line that regressed.
TEST(LintTest, RepositoryTreeIsClean) {
  const std::vector<Violation> found =
      LintTree(DMVI_LINT_REPO_ROOT, {"src", "tools", "tests"});
  EXPECT_TRUE(found.empty()) << Describe(found);
}

}  // namespace
}  // namespace deepmvi
