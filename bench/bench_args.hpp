// Command-line handling shared by the throughput benches that take a
// thread count: `NAME [--threads N]`.
//
// N must be a whole positive decimal that fits std::size_t (no sign, no
// whitespace, no suffix).  Anything else -- an unknown option, a missing
// value, "-1", "0", "abc", "4x" or an out-of-range number -- prints the
// usage line and exits with status 2, the same contract as sysmap_cli.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <string_view>
#include <system_error>

namespace sysmap::bench {

/// Returns the parsed `--threads` value (default 4), or exits the process
/// with status 2 after printing `usage: NAME [--threads N]`.
inline std::size_t parse_threads_or_exit(int argc, char** argv,
                                         const char* name) {
  std::size_t threads = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    bool ok = arg == "--threads" && i + 1 < argc;
    if (ok) {
      const std::string_view value = argv[++i];
      const char* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(value.data(), end, threads);
      ok = !value.empty() && ec == std::errc() && ptr == end && threads > 0;
    }
    if (!ok) {
      std::cerr << "usage: " << name << " [--threads N]\n";
      std::exit(2);
    }
  }
  return threads;
}

}  // namespace sysmap::bench
