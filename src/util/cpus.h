// How many CPUs this process may run on.
#pragma once

namespace fpisa::util {

/// The CPUs in this process's affinity mask (sched_getaffinity): what a
/// thread team can actually run on, which a cgroup or taskset can make
/// fewer than std::thread::hardware_concurrency()'s online count. Falls
/// back to that count where the mask cannot be read; never below 1.
int usable_cpus();

}  // namespace fpisa::util
