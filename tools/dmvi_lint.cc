// Repo-invariant linter: walks the source tree and enforces the
// concurrency/determinism/layering rules described in tools/lint/lint.h.
// CI runs it as a required job; the lint_test suite runs the same engine
// against golden fixtures.
//
// Usage: dmvi_lint [--repo-root DIR] [ROOT...]
//   ROOTs default to "src tools tests", relative to --repo-root
//   (default: the current directory). Exit 0 when clean, 1 on violations,
//   2 on usage errors.

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "tools/lint/lint.h"

int main(int argc, char** argv) {
  std::string repo_root = ".";
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--repo-root") {
      if (i + 1 >= argc) {
        std::cerr << "dmvi_lint: --repo-root needs a value\n";
        return 2;
      }
      repo_root = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: dmvi_lint [--repo-root DIR] [ROOT...]\n"
                   "rules: sync-primitive raw-rng iostream "
                   "unchecked-parse status-nodiscard layer-include\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "dmvi_lint: unknown flag " << arg << "\n";
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) roots = {"src", "tools", "tests"};

  const std::vector<deepmvi::lint::Violation> violations =
      deepmvi::lint::LintTree(repo_root, roots);
  for (const deepmvi::lint::Violation& violation : violations) {
    std::cout << deepmvi::lint::FormatViolation(violation) << "\n";
  }
  if (violations.empty()) {
    std::cout << "dmvi_lint: clean\n";
    return 0;
  }
  std::cout << "dmvi_lint: " << violations.size() << " violation(s)\n";
  return 1;
}
