#include "tools/lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace deepmvi {
namespace lint {
namespace {

namespace fs = std::filesystem;

/// True when `path` equals `prefix` or lives under `prefix`/.
bool IsUnder(const std::string& path, const std::string& prefix) {
  if (path.size() < prefix.size()) return false;
  if (path.compare(0, prefix.size(), prefix) != 0) return false;
  return path.size() == prefix.size() || path[prefix.size()] == '/';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Whole-token occurrence of `token` in `text`: the neighbors must not be
/// identifier characters (so std::condition_variable does not also match
/// inside std::condition_variable_any).
bool ContainsToken(const std::string& text, const std::string& token) {
  size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
    const size_t end = pos + token.size();
    const bool right_ok = end >= text.size() || !IsIdentChar(text[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

/// `name` followed by '(' (whitespace allowed), not preceded by an
/// identifier character — catches rand( / std::rand( but not strand(.
bool ContainsCall(const std::string& text, const std::string& name) {
  size_t pos = 0;
  while ((pos = text.find(name, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
    size_t end = pos + name.size();
    while (end < text.size() &&
           std::isspace(static_cast<unsigned char>(text[end])) != 0) {
      ++end;
    }
    if (left_ok && end < text.size() && text[end] == '(') return true;
    pos += 1;
  }
  return false;
}

/// Drops // and /* */ comments from one line; `in_block` carries block
/// state across lines. The exemption marker is read from the raw line
/// before stripping, so markers themselves live in comments.
std::string StripComments(const std::string& line, bool* in_block) {
  std::string out;
  size_t i = 0;
  while (i < line.size()) {
    if (*in_block) {
      const size_t close = line.find("*/", i);
      if (close == std::string::npos) return out;
      *in_block = false;
      i = close + 2;
      continue;
    }
    if (line.compare(i, 2, "//") == 0) break;
    if (line.compare(i, 2, "/*") == 0) {
      *in_block = true;
      i += 2;
      continue;
    }
    out += line[i];
    ++i;
  }
  return out;
}

bool LineAllows(const std::string& raw_line, const std::string& rule) {
  return raw_line.find("dmvi-lint: allow-" + rule) != std::string::npos;
}

/// The layer DAG, mirroring the link edges in src/*/CMakeLists.txt: a
/// layer may include its own headers, its (transitive) dependencies, and
/// nothing else. Keep in sync with the build when layers move.
const std::map<std::string, std::set<std::string>>& LayerClosure() {
  static const auto* closure = [] {
    std::map<std::string, std::set<std::string>> direct;
    direct["common"] = {};
    direct["obs"] = {"common"};
    direct["tensor"] = {"common", "obs"};
    direct["linalg"] = {"tensor"};
    direct["autodiff"] = {"tensor"};
    direct["nn"] = {"autodiff", "tensor"};
    direct["data"] = {"tensor"};
    direct["storage"] = {"nn", "obs", "tensor"};
    direct["scenario"] = {"tensor"};
    direct["core"] = {"data", "nn", "obs", "storage"};
    direct["serve"] = {"baselines", "core", "obs"};
    direct["net"] = {"obs", "serve"};
    direct["deep"] = {"data", "nn"};
    direct["baselines"] = {"data", "linalg"};
    direct["eval"] = {"data", "scenario", "storage"};
    // Transitive closure (the graph is tiny; fixed-point iteration).
    auto* out = new std::map<std::string, std::set<std::string>>(direct);
    bool changed = true;
    while (changed) {
      changed = false;
      for (auto& [layer, deps] : *out) {
        std::set<std::string> grown = deps;
        for (const std::string& dep : deps) {
          const auto it = out->find(dep);
          if (it == out->end()) continue;
          grown.insert(it->second.begin(), it->second.end());
        }
        if (grown.size() != deps.size()) {
          deps = std::move(grown);
          changed = true;
        }
      }
    }
    for (auto& [layer, deps] : *out) deps.insert(layer);  // Self-includes.
    return out;
  }();
  return *closure;
}

/// First path segment of a project include on this line, or "" when the
/// line is not a project #include.
std::string ProjectIncludeLayer(const std::string& code_line,
                                std::string* included_path) {
  size_t i = 0;
  while (i < code_line.size() &&
         std::isspace(static_cast<unsigned char>(code_line[i])) != 0) {
    ++i;
  }
  const std::string prefix = "#include \"";
  if (code_line.compare(i, prefix.size(), prefix) != 0) return "";
  const size_t start = i + prefix.size();
  const size_t end = code_line.find('"', start);
  if (end == std::string::npos) return "";
  *included_path = code_line.substr(start, end - start);
  const size_t slash = included_path->find('/');
  if (slash == std::string::npos) return "";
  return included_path->substr(0, slash);
}

struct TokenRule {
  const char* token;
  bool call_form;  // Match only when followed by '('.
};

void CheckSyncPrimitives(const std::string& path, int line_number,
                         const std::string& raw, const std::string& code,
                         std::vector<Violation>* out) {
  if (path == "src/common/mutex.h") return;  // The wrapper itself.
  if (LineAllows(raw, "sync-primitive")) return;
  // Token literals are split mid-word so this table does not trip the
  // very rule it implements when the tree lints itself.
  static const TokenRule kBanned[] = {
      {"std::mu" "tex", false},           {"std::timed_mu" "tex", false},
      {"std::recursive_mu" "tex", false}, {"std::shared_mu" "tex", false},
      {"std::lock_gu" "ard", false},      {"std::unique_lo" "ck", false},
      {"std::scoped_lo" "ck", false},     {"std::shared_lo" "ck", false},
      {"std::condition_vari" "able", false},
      {"std::condition_vari" "able_any", false},
      {"<mu" "tex>", false},              {"<condition_vari" "able>", false},
      {"<shared_mu" "tex>", false},
  };
  for (const TokenRule& rule : kBanned) {
    if (ContainsToken(code, rule.token)) {
      out->push_back({path, line_number, "sync-primitive",
                      std::string(rule.token) +
                          ": use Mutex/MutexLock/CondVar from "
                          "common/mutex.h (annotated for -Wthread-safety)"});
      return;  // One finding per line is enough.
    }
  }
}

void CheckRawRng(const std::string& path, int line_number,
                 const std::string& raw, const std::string& code,
                 std::vector<Violation>* out) {
  if (path == "src/common/rng.h" || path == "src/common/rng.cc") return;
  if (LineAllows(raw, "raw-rng")) return;
  // Literals split mid-word: see the sync-primitive table.
  static const TokenRule kBanned[] = {
      {"std::mt19" "937", false},         {"std::mt19" "937_64", false},
      {"std::minstd_ra" "nd", false},     {"std::minstd_ra" "nd0", false},
      {"std::default_random_eng" "ine", false},
      {"std::random_dev" "ice", false},
      {"ra" "nd", true},                  {"sra" "nd", true},
  };
  for (const TokenRule& rule : kBanned) {
    const bool hit = rule.call_form ? ContainsCall(code, rule.token)
                                    : ContainsToken(code, rule.token);
    if (hit) {
      out->push_back({path, line_number, "raw-rng",
                      std::string(rule.token) +
                          ": use common::Rng (common/rng.h) so runs stay "
                          "seeded and reproducible"});
      return;
    }
  }
}

void CheckIostream(const std::string& path, int line_number,
                   const std::string& raw, const std::string& code,
                   std::vector<Violation>* out) {
  if (!IsUnder(path, "src")) return;  // Tools and tests may print.
  if (path == "src/common/logging.cc") return;  // The one emitter.
  if (LineAllows(raw, "iostream")) return;
  // Literals split mid-word: see the sync-primitive table.
  static const TokenRule kBanned[] = {
      {"std::co" "ut", false}, {"std::ce" "rr", false},
      {"std::cl" "og", false}, {"<iostr" "eam>", false},
      {"pri" "ntf", true},     {"pu" "ts", true},
  };
  for (const TokenRule& rule : kBanned) {
    const bool hit = rule.call_form ? ContainsCall(code, rule.token)
                                    : ContainsToken(code, rule.token);
    if (hit) {
      out->push_back({path, line_number, "iostream",
                      std::string(rule.token) +
                          ": library code reports through DMVI_LOG / "
                          "Status, never the process streams"});
      return;
    }
  }
}

void CheckUncheckedParse(const std::string& path, int line_number,
                         const std::string& raw, const std::string& code,
                         std::vector<Violation>* out) {
  if (!IsUnder(path, "tools")) return;  // Flag values are parsed in tools.
  if (LineAllows(raw, "unchecked-parse")) return;
  // Literals split mid-word: see the sync-primitive table.
  static const char* const kBanned[] = {"at" "oi", "at" "ol", "at" "oll",
                                        "at" "of"};
  for (const char* name : kBanned) {
    if (ContainsCall(code, name)) {
      out->push_back({path, line_number, "unchecked-parse",
                      std::string(name) +
                          ": cannot report a malformed value; use "
                          "tools::ParseIntegerFlag or ParseDoubleFlag "
                          "(tools/dataset_flags.h)"});
      return;
    }
  }
}

void CheckLayerInclude(const std::string& path, int line_number,
                       const std::string& raw, const std::string& code,
                       std::vector<Violation>* out) {
  if (!IsUnder(path, "src")) return;
  if (LineAllows(raw, "layer-include")) return;
  // src/<layer>/...
  const size_t first = path.find('/');
  const size_t second = path.find('/', first + 1);
  if (second == std::string::npos) return;  // A file directly under src/.
  const std::string layer = path.substr(first + 1, second - first - 1);
  const auto& closure = LayerClosure();
  const auto allowed = closure.find(layer);
  if (allowed == closure.end()) return;  // Unknown directory: no DAG rule.
  std::string included;
  const std::string included_layer = ProjectIncludeLayer(code, &included);
  if (included_layer.empty()) return;
  if (closure.find(included_layer) == closure.end()) return;  // Not a layer.
  if (allowed->second.count(included_layer) != 0) return;
  out->push_back({path, line_number, "layer-include",
                  "\"" + included + "\": layer '" + layer +
                      "' must not include layer '" + included_layer +
                      "' (not among its CMake link dependencies)"});
}

void CheckStatusNodiscard(const std::string& repo_root,
                          std::vector<Violation>* out) {
  const std::string path = "src/common/status.h";
  std::ifstream in(fs::path(repo_root) / path);
  if (!in) {
    out->push_back({path, 0, "status-nodiscard", "cannot open for reading"});
    return;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string contents = buffer.str();
  for (const char* required :
       {"class [[nodiscard]] Status", "class [[nodiscard]] StatusOr"}) {
    if (contents.find(required) == std::string::npos) {
      out->push_back({path, 0, "status-nodiscard",
                      std::string("expected '") + required +
                          "' — ignored error returns must stay compiler "
                          "warnings"});
    }
  }
}

bool IsLintableFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc";
}

}  // namespace

std::vector<Violation> LintFileContents(const std::string& path,
                                        const std::string& contents) {
  std::vector<Violation> violations;
  std::istringstream stream(contents);
  std::string raw;
  bool in_block_comment = false;
  int line_number = 0;
  while (std::getline(stream, raw)) {
    ++line_number;
    const std::string code = StripComments(raw, &in_block_comment);
    if (code.empty()) continue;
    CheckSyncPrimitives(path, line_number, raw, code, &violations);
    CheckRawRng(path, line_number, raw, code, &violations);
    CheckIostream(path, line_number, raw, code, &violations);
    CheckUncheckedParse(path, line_number, raw, code, &violations);
    CheckLayerInclude(path, line_number, raw, code, &violations);
  }
  return violations;
}

std::vector<Violation> LintTree(const std::string& repo_root,
                                const std::vector<std::string>& roots) {
  std::vector<Violation> violations;
  CheckStatusNodiscard(repo_root, &violations);
  for (const std::string& root : roots) {
    const fs::path absolute = fs::path(repo_root) / root;
    std::error_code error;
    if (!fs::exists(absolute, error)) {
      violations.push_back({root, 0, "walk", "root does not exist"});
      continue;
    }
    std::vector<fs::path> files;
    if (fs::is_regular_file(absolute, error)) {
      files.push_back(absolute);
    } else {
      for (fs::recursive_directory_iterator it(absolute, error), end;
           it != end && !error; it.increment(error)) {
        if (it->is_directory() &&
            it->path().filename() == "lint_fixtures") {
          it.disable_recursion_pending();  // Fixtures violate on purpose.
          continue;
        }
        if (it->is_regular_file() && IsLintableFile(it->path())) {
          files.push_back(it->path());
        }
      }
      if (error) {
        violations.push_back({root, 0, "walk", "walk failed: " +
                              error.message()});
        continue;
      }
    }
    std::sort(files.begin(), files.end());
    for (const fs::path& file : files) {
      std::ifstream in(file);
      if (!in) {
        violations.push_back({file.generic_string(), 0, "walk",
                              "cannot open for reading"});
        continue;
      }
      std::stringstream buffer;
      buffer << in.rdbuf();
      const std::string relative =
          fs::relative(file, repo_root, error).generic_string();
      const std::string lint_path = error ? file.generic_string() : relative;
      std::vector<Violation> found = LintFileContents(lint_path, buffer.str());
      violations.insert(violations.end(), found.begin(), found.end());
    }
  }
  return violations;
}

std::string FormatViolation(const Violation& violation) {
  std::ostringstream out;
  out << violation.file;
  if (violation.line > 0) out << ":" << violation.line;
  out << ": [" << violation.rule << "] " << violation.message;
  return out.str();
}

}  // namespace lint
}  // namespace deepmvi
