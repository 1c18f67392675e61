// Minimal command-line option parser shared by the CLI tools.
//
// Supports "--name value", "--name=value", "-x value" and boolean
// "--flag"; positional arguments are collected in order. Each tool names
// the options it understands through accept(); any other option is a
// usage error. Tokens that parse fully as numbers are never treated as
// option names, so negative values work both as option values
// ("--seed -3") and as positionals.
// Limitation: a flag followed by a bare token greedily binds it as the
// flag's value — place positional arguments before flags (all tools here
// do).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/env.h"
#include "net/prefix.h"

namespace bgpatoms::cli {

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.empty() || arg[0] != '-' || arg == "-" || is_number(arg)) {
        positional_.push_back(std::move(arg));
        continue;
      }
      arg = arg.substr(arg.rfind("--", 0) == 0 ? 2 : 1);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        options_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc &&
                 (argv[i + 1][0] != '-' || is_number(argv[i + 1]))) {
        options_[arg] = argv[++i];
      } else {
        options_[arg] = "";  // boolean flag
      }
    }
  }

  bool has(const std::string& name) const { return options_.count(name) > 0; }

  std::string get(const std::string& name,
                  const std::string& fallback = "") const {
    const auto it = options_.find(name);
    return it == options_.end() ? fallback : it->second;
  }

  /// Strict numeric accessors: a present but malformed value ("--threads
  /// abc", "--scale 0.5x") is a hard usage error — print a diagnostic and
  /// exit 2 — never a silent 0 the way atof/atol behaved.
  /// `min_value`/`max_value` bound the accepted range the same way
  /// get_int's bounds do; NaN never satisfies a range, so it is always a
  /// usage error (exit 2), even under the default unbounded range.
  double get_double(
      const std::string& name, double fallback,
      double min_value = -std::numeric_limits<double>::infinity(),
      double max_value = std::numeric_limits<double>::infinity()) const {
    const auto it = options_.find(name);
    if (it == options_.end()) return fallback;
    const auto value = core::parse_double(it->second);
    if (!value) fail_parse(name, it->second, "a number");
    if (std::isnan(*value) || *value < min_value || *value > max_value) {
      fail_range_double(name, it->second, min_value, max_value);
    }
    return *value;
  }

  /// Strict prefix accessor: the value must parse through the one shared
  /// net::parse_prefix helper ("addr/len" CIDR or a bare address as a
  /// host route). Malformed input is a usage error (exit 2), never a
  /// silently skipped filter. nullopt when the option is absent.
  std::optional<net::Prefix> get_prefix(const std::string& name) const {
    const auto it = options_.find(name);
    if (it == options_.end()) return std::nullopt;
    const auto prefix = net::parse_prefix(it->second);
    if (!prefix) fail_parse(name, it->second, "an IP prefix or address");
    return prefix;
  }

  /// `min_value`/`max_value` bound the accepted range: an in-range check
  /// at the parse boundary, so callers can narrow (static_cast<int>,
  /// uint32) without silent wrapping. Out-of-range is a usage error
  /// (exit 2), same policy as a malformed value.
  long get_int(const std::string& name, long fallback,
               long min_value = std::numeric_limits<long>::min(),
               long max_value = std::numeric_limits<long>::max()) const {
    const auto it = options_.find(name);
    if (it == options_.end()) return fallback;
    const auto value = core::parse_int(it->second);
    if (!value) fail_parse(name, it->second, "an integer");
    if (*value < static_cast<long long>(min_value) ||
        *value > static_cast<long long>(max_value)) {
      fail_range(name, it->second, min_value, max_value);
    }
    return static_cast<long>(*value);
  }

  const std::vector<std::string>& positional() const { return positional_; }

  /// Rejects every option outside `known` (--help is always known): a
  /// typo such as "--peer-as" for "--peer-asn" must not silently drop a
  /// filter. Prints a diagnostic naming the option and exits 2.
  void accept(std::initializer_list<std::string_view> known) const {
    for (const auto& [name, value] : options_) {
      if (name == "help" ||
          std::find(known.begin(), known.end(), name) != known.end()) {
        continue;
      }
      std::fprintf(stderr, "error: unknown option %s%s (see --help)\n",
                   name.size() == 1 ? "-" : "--", name.c_str());
      std::exit(2);
    }
  }

  /// Prints usage and exits: 0 when --help was passed (even without the
  /// tool's required arguments), 2 when `condition` holds.
  void usage_if(bool condition, const char* text) const {
    if (condition || has("help")) {
      std::fputs(text, stderr);
      std::exit(has("help") ? 0 : 2);
    }
  }

 private:
  /// True when the whole token parses as a number ("-3", "-0.5", "2e4").
  static bool is_number(const std::string& token) {
    return core::parse_double(token).has_value();
  }

  [[noreturn]] static void fail_parse(const std::string& name,
                                      const std::string& value,
                                      const char* expected) {
    std::fprintf(stderr, "error: --%s expects %s, got '%s' (see --help)\n",
                 name.c_str(), expected, value.c_str());
    std::exit(2);
  }

  [[noreturn]] static void fail_range(const std::string& name,
                                      const std::string& value, long lo,
                                      long hi) {
    std::fprintf(stderr,
                 "error: --%s expects an integer in [%ld, %ld], got '%s' "
                 "(see --help)\n",
                 name.c_str(), lo, hi, value.c_str());
    std::exit(2);
  }

  [[noreturn]] static void fail_range_double(const std::string& name,
                                             const std::string& value,
                                             double lo, double hi) {
    std::fprintf(stderr,
                 "error: --%s expects a number in [%g, %g], got '%s' "
                 "(see --help)\n",
                 name.c_str(), lo, hi, value.c_str());
    std::exit(2);
  }

  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace bgpatoms::cli
