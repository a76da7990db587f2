#ifndef RELMAX_COMMON_FLAGS_H_
#define RELMAX_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>

namespace relmax {

/// Minimal command-line flag parser for the bench harness and examples.
///
/// Accepts `--name=value` and `--name value` forms plus bare `--name`
/// booleans. Unknown positional arguments are rejected so typos fail loudly.
/// Values can also be supplied via environment variables named
/// `RELMAX_<NAME>` (upper-cased, dashes to underscores); explicit flags win.
///
/// Typed getters are strict: a value that is empty, not a number, has
/// trailing junk, or is out of range (for GetBool: not one of
/// true/false/1/0/yes/no) prints the flag and the bad value on stderr and
/// exits with status 2, the same as Parse does for a malformed argument, so a
/// typo never runs as a guessed value (`--threads abc` is not 0, "all
/// cores").
class Flags {
 public:
  /// Parses argv. Aborts with a usage message on malformed input.
  static Flags Parse(int argc, char** argv);

  /// Integer flag with default; must parse whole as a base-10 int64.
  int64_t GetInt(const std::string& name, int64_t def) const;
  /// Floating-point flag with default; must parse whole as a finite double.
  double GetDouble(const std::string& name, double def) const;
  /// String flag with default.
  std::string GetString(const std::string& name, const std::string& def) const;
  /// Boolean flag: present without value, or =true/=false/=1/=0/=yes/=no.
  bool GetBool(const std::string& name, bool def) const;

  bool Has(const std::string& name) const;

 private:
  // Returns flag value, env value, or nullptr.
  const std::string* Lookup(const std::string& name) const;

  // Reports an unparsable value for `name` on stderr and exits 2.
  [[noreturn]] void BadValue(const std::string& name, const std::string& value,
                             const char* want) const;

  std::string program_ = "relmax";
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, std::string> env_cache_;
};

}  // namespace relmax

#endif  // RELMAX_COMMON_FLAGS_H_
