#include "util/cpus.h"

#include <sched.h>

#include <algorithm>
#include <thread>

namespace fpisa::util {

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

}  // namespace fpisa::util
