#include "common/flags.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace relmax {
namespace {

std::string EnvName(const std::string& flag) {
  std::string out = "RELMAX_";
  for (char ch : flag) {
    if (ch == '-') {
      out += '_';
    } else {
      out += static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
    }
  }
  return out;
}

[[noreturn]] void Usage(const char* argv0, const char* bad) {
  std::fprintf(stderr,
               "%s: unrecognized argument '%s'\n"
               "flags take the form --name=value, --name value, or --name\n",
               argv0, bad);
  std::exit(2);
}

}  // namespace

Flags Flags::Parse(int argc, char** argv) {
  Flags flags;
  if (argc > 0) flags.program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) Usage(argv[0], arg);
    std::string body = arg + 2;
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags.values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags.values_[body] = argv[++i];
    } else {
      flags.values_[body] = "true";
    }
  }
  return flags;
}

const std::string* Flags::Lookup(const std::string& name) const {
  auto it = values_.find(name);
  if (it != values_.end()) return &it->second;
  auto cached = env_cache_.find(name);
  if (cached != env_cache_.end()) return &cached->second;
  const char* env = std::getenv(EnvName(name).c_str());
  if (env != nullptr) {
    auto [inserted, _] = env_cache_.emplace(name, env);
    return &inserted->second;
  }
  return nullptr;
}

void Flags::BadValue(const std::string& name, const std::string& value,
                     const char* want) const {
  const std::string source =
      values_.count(name) != 0 ? "" : " (from " + EnvName(name) + ")";
  std::fprintf(stderr, "%s: invalid value '%s' for --%s%s: want %s\n",
               program_.c_str(), value.c_str(), name.c_str(), source.c_str(),
               want);
  std::exit(2);
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  const std::string* v = Lookup(name);
  if (v == nullptr) return def;
  // strtoll alone skips leading space, stops at junk, and saturates on
  // overflow; every one of those must be an error, not a guess.
  const char* begin = v->c_str();
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(begin, &end, 10);
  if (v->empty() || std::isspace(static_cast<unsigned char>(*begin)) ||
      end == begin || *end != '\0' || errno == ERANGE) {
    BadValue(name, *v, "an integer");
  }
  return value;
}

int Flags::GetInt32(const std::string& name, int def) const {
  const int64_t value = GetInt(name, def);
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    BadValue(name, *Lookup(name), "an integer in int range");
  }
  return static_cast<int>(value);
}

double Flags::GetDouble(const std::string& name, double def) const {
  const std::string* v = Lookup(name);
  if (v == nullptr) return def;
  const char* begin = v->c_str();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(begin, &end);
  if (v->empty() || std::isspace(static_cast<unsigned char>(*begin)) ||
      end == begin || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value)) {
    BadValue(name, *v, "a finite number");
  }
  return value;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  const std::string* v = Lookup(name);
  return v == nullptr ? def : *v;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  const std::string* v = Lookup(name);
  if (v == nullptr) return def;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  BadValue(name, *v, "true|false|1|0|yes|no");
}

bool Flags::Has(const std::string& name) const {
  return Lookup(name) != nullptr;
}

}  // namespace relmax
