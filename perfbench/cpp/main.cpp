// perfbench: the repository's end-to-end + per-layer benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//
// One workload per process, on one thread. --trace 0 runs set-up and the
// untraced timed phase and ends with the end-to-end metrics; --trace 1
// additionally runs the traced pass and ends with the per-layer metrics.
// Either way the last stdout line is the JSON result
// {"correct", "attempted", "failed", "metrics"}; the lines before it are
// the human-readable report and a {"context": ...} record. The traced
// pass's span records go to DIR/trace-<workload>-<seed>.jsonl.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "clock.h"
#include "common/parse.h"
#include "decorators.h"
#include "dsp/backend.h"
#include "net/network.h"
#include "procfs.h"
#include "report.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload fig18_mobile|stream_churn|"
               "net_handover --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n",
               argv0, why.c_str(), argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  opt.work_dir = ".bench_build/perfbench-work";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(argv[0], "missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!mmr::parse_u64(value.c_str(), opt.seed)) {
        usage(argv[0], "bad --seed " + value);
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!mmr::parse_f64(value.c_str(), opt.seconds) ||
          !(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
        usage(argv[0], "bad --seconds " + value);
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage(argv[0], "bad --trace " + value);
      opt.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else {
      usage(argv[0], "unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage(argv[0], "--workload, --seed, --seconds and --trace are required");
  }
  return opt;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  WorkloadOutput (*run)(const Options&, Checks&, Tracer&) = nullptr;
  if (opt.workload == "fig18_mobile") run = run_fig18_mobile;
  if (opt.workload == "stream_churn") run = run_stream_churn;
  if (opt.workload == "net_handover") run = run_net_handover;
  if (run == nullptr) usage(argv[0], "unknown workload " + opt.workload);

  try {
    std::filesystem::create_directories(opt.work_dir);
    const auto steal0 = steal_ticks(read_text_file("/proc/stat"));
    const std::int64_t wall0 = mono_ns();

    mmr::net::register_net_builtins();
    register_decorators();
    Tracer tracer;
    Checks checks;
    const WorkloadOutput out = run(opt, checks, tracer);

    const auto steal1 = steal_ticks(read_text_file("/proc/stat"));
    const double wall_s = static_cast<double>(mono_ns() - wall0) * 1e-9;
    // /proc/stat counts in USER_HZ ticks (100 per second on Linux).
    const double steal_ms =
        steal0 && steal1 ? static_cast<double>(*steal1 - *steal0) * 10.0 : -1.0;
    const char* env_backend = std::getenv("MMR_KERNEL_BACKEND");
    std::ostringstream context;
    context << "{\"context\": {\"workload\": " << json_string(opt.workload)
            << ", \"seed\": " << opt.seed << ", \"seconds\": "
            << json_number(opt.seconds)
            << ", \"trace\": " << (opt.trace ? 1 : 0)
            << ", \"kernel_backend\": "
            << json_string(std::string(
                   mmr::dsp::backend_name(mmr::dsp::active_backend())))
            << ", \"kernel_backend_env\": "
            << (env_backend != nullptr ? json_string(env_backend) : "null")
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"jobs\": 1, \"steal_ms\": " << json_number(steal_ms)
            << ", \"wall_s\": " << json_number(wall_s)
            << ", \"cpu_s\": " << json_number(process_cpu_s());
    for (const Metric& m : out.per_layer) {
      if (m.name == "trace.overhead_ratio") {
        context << ", \"trace_overhead_ratio\": " << json_number(m.value);
      }
    }
    context << ", \"attempted\": " << checks.attempted()
            << ", \"failed\": " << checks.failed() << "}}";

    std::cout << "perfbench " << opt.workload << " seed " << opt.seed
              << (opt.trace ? " (traced)" : "") << "\n"
              << "end-to-end:\n" << format_metrics(out.end_to_end)
              << "end-to-end, defined on this workload only:\n"
              << format_metrics(out.workload_end_to_end);
    for (const std::string& note : out.notes) std::cout << "  # " << note << "\n";
    if (opt.trace) {
      std::cout << "per-layer:\n" << format_metrics(out.per_layer)
                << "per-layer, defined on this workload only:\n"
                << format_metrics(out.workload_per_layer);
      const std::string path = opt.work_dir + "/trace-" + opt.workload + "-" +
                               std::to_string(opt.seed) + ".jsonl";
      std::ofstream trace_file(path);
      trace_file << context.str() << "\n";
      tracer.write_jsonl(trace_file);
      if (!trace_file) throw std::runtime_error("cannot write " + path);
      std::cout << "  # span records: " << path << "\n";
    }
    std::cout << "operations: " << checks.attempted() << " checks attempted, "
              << checks.failed() << " failed\n"
              << context.str() << "\n"
              << "{\"end_to_end\": " << metrics_json(out.end_to_end)
              << ", \"workload_end_to_end\": "
              << metrics_json(out.workload_end_to_end);
    if (opt.trace) {
      std::cout << ", \"per_layer\": " << metrics_json(out.per_layer)
                << ", \"workload_per_layer\": "
                << metrics_json(out.workload_per_layer);
    }
    std::cout << "}\n"
              << result_line(checks, opt.trace ? out.per_layer : out.end_to_end)
              << std::endl;
  } catch (const std::exception& e) {
    std::cout.flush();
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
