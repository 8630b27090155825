// Backend selection and dispatch-table publication. See backend.h for
// the selection policy and thread-safety contract.
#include "dsp/backend.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "dsp/backend_kernels.h"

namespace mmr::dsp {

namespace {

const KernelTable* table_for(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return detail::scalar_table();
    case Backend::kPortable:
      return detail::portable_table();
    case Backend::kAvx2:
      return detail::avx2_table();
    case Backend::kNeon:
      return detail::neon_table();
  }
  return nullptr;
}

bool cpu_supports(Backend b) {
  switch (b) {
    case Backend::kScalar:
    case Backend::kPortable:
      return true;
    case Backend::kAvx2:
#if defined(__x86_64__) || defined(_M_X64)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Backend::kNeon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

// Priority order for automatic selection and compiled_backends().
constexpr Backend kPriority[] = {Backend::kAvx2, Backend::kNeon,
                                 Backend::kPortable, Backend::kScalar};

std::atomic<const KernelTable*> g_table{nullptr};
std::atomic<Backend> g_backend{Backend::kScalar};

// First-use initialization (not static-init): resolves the
// MMR_KERNEL_BACKEND override, falling back to automatic selection with
// a stderr warning rather than throwing from a pre-main context.
void ensure_init() {
  static const bool init = [] {
    Backend pick = best_backend();
    if (const char* env = std::getenv("MMR_KERNEL_BACKEND")) {
      const auto parsed = parse_backend(env);
      if (!parsed) {
        std::fprintf(stderr,
                     "mmr: MMR_KERNEL_BACKEND=%s is not a known backend "
                     "(scalar|portable|avx2|neon|auto); using %s\n",
                     env, std::string(backend_name(pick)).c_str());
      } else if (!backend_supported(*parsed)) {
        std::fprintf(stderr,
                     "mmr: MMR_KERNEL_BACKEND=%s is not compiled in or not "
                     "executable on this CPU; using %s\n",
                     env, std::string(backend_name(pick)).c_str());
      } else {
        pick = *parsed;
      }
    }
    g_table.store(table_for(pick), std::memory_order_relaxed);
    g_backend.store(pick, std::memory_order_relaxed);
    return true;
  }();
  (void)init;
}

}  // namespace

std::vector<Backend> compiled_backends() {
  std::vector<Backend> out;
  for (Backend b : kPriority) {
    if (table_for(b) != nullptr) out.push_back(b);
  }
  return out;
}

bool backend_supported(Backend backend) {
  return table_for(backend) != nullptr && cpu_supports(backend);
}

Backend best_backend() {
  for (Backend b : kPriority) {
    if (backend_supported(b)) return b;
  }
  return Backend::kScalar;
}

Backend active_backend() {
  ensure_init();
  return g_backend.load(std::memory_order_relaxed);
}

bool set_backend(Backend backend) {
  ensure_init();
  if (!backend_supported(backend)) return false;
  g_table.store(table_for(backend), std::memory_order_relaxed);
  g_backend.store(backend, std::memory_order_relaxed);
  return true;
}

const KernelTable& active_table() {
  ensure_init();
  return *g_table.load(std::memory_order_relaxed);
}

std::string_view backend_name(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kPortable:
      return "portable";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kNeon:
      return "neon";
  }
  return "unknown";
}

std::optional<Backend> parse_backend(std::string_view name) {
  if (name == "scalar") return Backend::kScalar;
  if (name == "portable") return Backend::kPortable;
  if (name == "avx2") return Backend::kAvx2;
  if (name == "neon") return Backend::kNeon;
  if (name == "auto") return best_backend();
  return std::nullopt;
}

KernelTolerances tolerances(Backend backend) {
  // Budgets are a CONTRACT, not a snapshot of today's libm; measured
  // error is typically well under them. The abs_tol arm is relative to
  // the natural scale of the computation (sum of term magnitudes for
  // reductions, |alpha| for accumulates, 1 for unit phasors); see
  // tests/common/diff_harness.h. The dominant fast-path error is the
  // anchor+delta phase split -- fl(step*i) + fl(step*k) differs from
  // fl(step*(i+k)) by ~1 ulp of the TOTAL phase, so the absolute error
  // grows like ulp(|step| * n): < 1e-13 for production steering ranges
  // (total phase < ~1e3 rad), bounded by 1e-11 for total phase up to
  // ~4e4 rad, which the contracts below state.
  //
  // log and sincos are exact (libm) except on AVX2, whose in-house
  // kernels are within a few ULPs of libm: log relative to its result
  // (no absolute arm: sqrt(-2 log u) turns an absolute error near u = 1
  // into a large one), sin/cos also within an absolute 1e-15 -- the
  // reduction's ~2^-53 absolute error in r is many ULPs of a result near
  // a zero of sin or cos.
  KernelTolerances fast{
      /*phasor_ramp=*/{64, 1e-11},
      /*dot=*/{512, 1e-11},
      /*axpy=*/{64, 1e-11},
      /*delay_phasors=*/{512, 1e-9},
      /*log=*/{0, 0.0},
      /*sincos=*/{0, 0.0},
  };
  switch (backend) {
    case Backend::kScalar:
      return KernelTolerances{};  // the reference: exact by definition
    case Backend::kPortable:
    case Backend::kNeon:  // reuses the portable phasor/delay kernels
      return fast;
    case Backend::kAvx2:
      fast.log = {4, 0.0};
      fast.sincos = {4, 1e-15};
      return fast;
  }
  return KernelTolerances{};
}

}  // namespace mmr::dsp
