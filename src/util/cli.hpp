// Minimal command-line flag parser for bench and example binaries.
//
// Accepts `--name=value`, `--name value`, and boolean `--name`. Unknown flags
// are an error so typos in experiment scripts fail loudly instead of running
// the wrong configuration.
#pragma once

#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace cscv::util {

class CliFlags {
 public:
  /// Parses argv; throws CheckError on malformed or unknown flags once
  /// `finish()` is called (flags are validated lazily so callers declare the
  /// set of known flags by querying them).
  CliFlags(int argc, char** argv);

  /// Value of --name, or `def` when absent.
  std::string get_string(const std::string& name, const std::string& def);
  int get_int(const std::string& name, int def);
  double get_double(const std::string& name, double def);
  bool get_bool(const std::string& name, bool def = false);

  /// Comma-separated integer list flag, e.g. --sizes=64,128,256.
  std::vector<int> get_int_list(const std::string& name, std::vector<int> def);

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  /// Throws if any parsed flag was never queried (catches typos).
  void finish() const;

 private:
  std::optional<std::string> lookup(const std::string& name);

  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

/// The handler of a bench or example `main`: prints the error that escaped
/// it (an unknown flag, a bad value, a failed check) as "<program>: <what>"
/// on stderr and returns the exit code, 2.
int report_main_error(const char* argv0, const std::exception& e);

}  // namespace cscv::util
