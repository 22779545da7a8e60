// Minimal --key=value command-line parser for bench/example binaries.
#pragma once

#include <initializer_list>
#include <map>
#include <string>
#include <string_view>

namespace swallow::common {

class Flags {
 public:
  /// Accepts "--key=value", "--key value" (the next token, when it does not
  /// itself start with "--"), and bare "--key" (=> "true"). Throws
  /// std::invalid_argument on a positional and on a key not in `declared`,
  /// naming it: a misspelled or unsupported flag stops the program instead
  /// of leaving a default in place. Every program declares all the flags
  /// it reads, including "log-level" when it calls apply_log_level_flag and
  /// "trace-out" when it calls the obs/cli.hpp helpers.
  Flags(int argc, const char* const* argv,
        std::initializer_list<std::string_view> declared);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& def) const;
  double get_double(const std::string& key, double def) const;
  long get_int(const std::string& key, long def) const;
  bool get_bool(const std::string& key, bool def) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Applies the standard --log-level=debug|info|warn|error flag to the
/// global logger (no-op when absent). Examples call this first thing.
void apply_log_level_flag(const Flags& flags);

}  // namespace swallow::common
