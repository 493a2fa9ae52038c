#ifndef DEEPMVI_TOOLS_LINT_LINT_H_
#define DEEPMVI_TOOLS_LINT_LINT_H_

#include <string>
#include <vector>

namespace deepmvi {
namespace lint {

/// One repo-invariant violation. `line` is 1-based; 0 marks a file-level
/// finding (e.g. a required attribute missing from a header).
struct Violation {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// The rules, for --help output and the self-tests:
///  - sync-primitive : raw <mutex>/<condition_variable> primitives outside
///    src/common/mutex.h — everything must go through the annotated
///    Mutex/MutexLock/CondVar wrappers so Clang -Wthread-safety sees every
///    critical section.
///  - raw-rng        : raw std engines / rand() outside src/common/rng.* —
///    all randomness flows through common::Rng so runs stay seeded and
///    reproducible.
///  - iostream       : std::cout/cerr writes in library code (src/ outside
///    the logging emitter) — libraries report through DMVI_LOG / Status.
///  - unchecked-parse : atoi/atol/atoll/atof calls under tools/ — they
///    cannot report a malformed value, so a mistyped flag would run with
///    0; tools parse flags with tools::ParseIntegerFlag / ParseDoubleFlag.
///  - status-nodiscard : src/common/status.h must keep [[nodiscard]] on
///    Status and StatusOr so ignored error returns stay compiler errors.
///  - layer-include  : project includes in src/<layer>/ must respect the
///    layer DAG (the CMake link edges); no upward or sideways includes.
///
/// A line ending in a `dmvi-lint: allow-<rule>` comment is exempt from
/// that rule (used by the wrapper itself and by this linter's own token
/// tables).

/// Lints one file's contents. `path` must be repo-relative with forward
/// slashes — rule applicability (src/ vs tools/, exempt files) is decided
/// from it.
std::vector<Violation> LintFileContents(const std::string& path,
                                        const std::string& contents);

/// Walks `roots` (paths relative to `repo_root`) and lints every .h/.cc
/// file, plus the repo-level checks (status-nodiscard). Fixture trees
/// under tests/lint_fixtures/ are skipped. Unreadable roots are reported
/// as file-level violations rather than silently skipped.
std::vector<Violation> LintTree(const std::string& repo_root,
                                const std::vector<std::string>& roots);

/// "file:line: [rule] message" (file-level findings omit the line).
std::string FormatViolation(const Violation& violation);

}  // namespace lint
}  // namespace deepmvi

#endif  // DEEPMVI_TOOLS_LINT_LINT_H_
