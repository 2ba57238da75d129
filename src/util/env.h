#ifndef IBFS_UTIL_ENV_H_
#define IBFS_UTIL_ENV_H_

#include <cstdint>
#include <string>

namespace ibfs {

/// Reads an integer configuration knob from the environment, falling back to
/// `def` when unset or unparsable. Benchmarks use this (e.g. IBFS_SCALE) so
/// the scaled-down defaults can be grown without recompiling.
int64_t EnvInt64(const char* name, int64_t def);

/// Reads a string knob from the environment.
std::string EnvString(const char* name, const std::string& def);

}  // namespace ibfs

#endif  // IBFS_UTIL_ENV_H_
