// The clocks the benchmark reads.
//
// End-to-end timings use the PROCESS CPU clock: it sums every thread of
// the process (so moving work onto a helper thread cannot fake a gain)
// and, on a paravirtualised guest, excludes time the hypervisor stole
// from the vCPU. The calibration chunk runs on the calling thread and is
// timed with the THREAD CPU clock, so CPU another thread spends while it
// runs neither slows the chunk down nor is taken out of the program's
// time (calib.h). Reading either is a system call, so spans inside the
// traced pass use the vDSO monotonic clock instead.
#pragma once

#include <cstdint>
#include <ctime>

namespace perfbench {

inline double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

inline double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

inline std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace perfbench
