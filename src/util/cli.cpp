#include "util/cli.hpp"

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string_view>

#include "util/assertx.hpp"

namespace cscv::util {

CliFlags::CliFlags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flags_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      flags_[std::string(arg)] = argv[++i];
    } else {
      flags_[std::string(arg)] = "true";  // bare boolean flag
    }
  }
}

std::optional<std::string> CliFlags::lookup(const std::string& name) {
  queried_[name] = true;
  auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string CliFlags::get_string(const std::string& name, const std::string& def) {
  return lookup(name).value_or(def);
}

namespace {

/// The whole of `text` as a number of type N; anything else, a trailing
/// character or a value out of N's range included, is a CheckError that
/// names the flag.
template <typename N>
N parse_number(const std::string& name, const std::string& text, const char* what) {
  N value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  CSCV_CHECK_MSG(ec != std::errc::result_out_of_range,
                 "--" << name << ": " << text << " is out of range");
  CSCV_CHECK_MSG(ec == std::errc() && ptr == end && !text.empty(),
                 "--" << name << ": '" << text << "' is not " << what);
  return value;
}

}  // namespace

int CliFlags::get_int(const std::string& name, int def) {
  auto v = lookup(name);
  if (!v) return def;
  CSCV_CHECK_MSG(!v->empty(), "--" << name << " needs a value");
  return parse_number<int>(name, *v, "an integer");
}

double CliFlags::get_double(const std::string& name, double def) {
  auto v = lookup(name);
  if (!v) return def;
  CSCV_CHECK_MSG(!v->empty(), "--" << name << " needs a value");
  return parse_number<double>(name, *v, "a number");
}

bool CliFlags::get_bool(const std::string& name, bool def) {
  auto v = lookup(name);
  if (!v) return def;
  return *v == "true" || *v == "1" || *v == "yes";
}

std::vector<int> CliFlags::get_int_list(const std::string& name, std::vector<int> def) {
  auto v = lookup(name);
  if (!v) return def;
  std::vector<int> out;
  std::stringstream ss(*v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(parse_number<int>(name, item, "an integer"));
  }
  CSCV_CHECK_MSG(!out.empty(), "--" << name << " list is empty");
  return out;
}

void CliFlags::finish() const {
  for (const auto& [name, _] : flags_) {
    CSCV_CHECK_MSG(queried_.count(name) != 0, "unknown flag --" << name);
  }
}

int report_main_error(const char* argv0, const std::exception& e) {
  const std::string_view path = argv0 != nullptr ? argv0 : "";
  std::cerr << path.substr(path.find_last_of('/') + 1) << ": " << e.what() << "\n";
  return 2;
}

}  // namespace cscv::util
