#include "common/flags.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/logging.hpp"

namespace swallow::common {

Flags::Flags(int argc, const char* const* argv,
             std::initializer_list<std::string_view> declared) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0)
      throw std::invalid_argument("Flags: expected --key[=value], got " + arg);
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    if (std::find(declared.begin(), declared.end(), key) == declared.end())
      throw std::invalid_argument("Flags: unknown flag --" + key);
    if (eq != std::string::npos) {
      values_[key] = arg.substr(eq + 1);
      continue;
    }
    // "--key value": consume the next token unless it is itself a flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Flags::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Flags::get(const std::string& key, const std::string& def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

double Flags::get_double(const std::string& key, double def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : std::stod(it->second);
}

long Flags::get_int(const std::string& key, long def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : std::stol(it->second);
}

bool Flags::get_bool(const std::string& key, bool def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

void apply_log_level_flag(const Flags& flags) {
  if (!flags.has("log-level")) return;
  const std::string level = flags.get("log-level", "warn");
  try {
    set_log_level(parse_log_level(level));
  } catch (const std::invalid_argument&) {
    // A bad level must not abort the program it was meant to make chattier.
    log_error("flags: ignoring unknown --log-level '", level,
              "' (expected debug|info|warn|error)");
  }
}

}  // namespace swallow::common
