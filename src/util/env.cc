#include "util/env.h"

#include <cstdlib>

namespace ibfs {

int64_t EnvInt64(const char* name, int64_t def) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return def;
  char* end = nullptr;
  const long long parsed = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0') return def;
  return parsed;
}

std::string EnvString(const char* name, const std::string& def) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return def;
  return raw;
}

}  // namespace ibfs
