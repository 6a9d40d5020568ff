#include "host.h"

#include <sys/resource.h>

#include <chrono>
#include <fstream>
#include <thread>

#include "bsimsoi/simd.h"
#include "common/strings.h"

namespace e2ebench {

HostInfo host_info() {
  HostInfo h;
  h.cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos)
        h.cpu_model = std::string(mivtx::trim(line.substr(colon + 1)));
      break;
    }
  }
  h.nproc = std::thread::hardware_concurrency();
  h.simd = mivtx::bsimsoi::simd_level_name(mivtx::bsimsoi::best_simd_level());
  h.build_type = E2EBENCH_BUILD_TYPE;
#if defined(E2EBENCH_TRACE_ON)
  h.trace_compiled = true;
#endif
  return h;
}

std::string render_host(const HostInfo& h) {
  return mivtx::format("host: cpu=\"%s\" nproc=%u simd=%s build=%s "
                       "MIVTX_TRACE=%s\n",
                       h.cpu_model.c_str(), h.nproc, h.simd.c_str(),
                       h.build_type.c_str(), h.trace_compiled ? "ON" : "OFF");
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace e2ebench
