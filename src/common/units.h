#ifndef FELA_COMMON_UNITS_H_
#define FELA_COMMON_UNITS_H_

namespace fela::common {

inline constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

/// Converts a link rate in gigabits per second to bytes per second.
constexpr double GbpsToBytesPerSec(double gbps) { return gbps * 1e9 / 8.0; }

}  // namespace fela::common

#endif  // FELA_COMMON_UNITS_H_
