// Network-wide reliability under crowd blockage: many cells, many UE
// sessions on a shared timeline (src/net), every link scored with
// cross-link interference folded into its SINR and its availability
// accounted by the Terragraph-style link state machine.
//
// Three schemes run the SAME network trials (same per-trial stream seeds,
// same crowds): mmReliable's standing two-beam controller, the reactive
// single-beam baseline, and the Terragraph-style ladder controller
// (refine -> switch -> retrain). When a walker blocks the serving path,
// terragraph/reactive pay the full recovery dance (link Unstable/Down
// while it runs), while mmReliable's second beam keeps the link Up -- so
// its availability column leads. At the committed defaults it trails
// reactive on reliability and throughput (README's network section).
//
// On top of the shared sweep flags (sweep_cli.h), the bench adds:
//   --cells N            base stations on a line (default 3)
//   --ues-per-cell N     sessions per cell (default 2)
//   --cell-spacing-m X   distance between neighboring cells (default 40)
//   --network-json-out F append one network record (availability /
//                        reliability / throughput CDFs) per scheme to F
//
// Each scheme is one engine campaign (sim::ExperimentSpec::network) run
// through bench::run_campaign, so --json-out and every durable and
// distributed flag work as in the other benches. A shard worker prints
// only its progress note and sweep records. --controller narrows the
// sweep to one scheme; --scenario swaps the crowd template (default
// indoor_crowd).
#include <cstdio>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/constants.h"
#include "common/table.h"
#include "net/network.h"
#include "sim/engine.h"
#include "sweep_cli.h"

using namespace mmr;

namespace {

const std::vector<std::string> kSchemes = {"mmreliable", "reactive",
                                           "terragraph"};

double mean_availability(const sim::EngineResult& result,
                         double duration_s) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& detail : result.networks) {
    for (const auto& link : detail.links) {
      sum += link.availability(duration_s);
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

std::size_t total_handovers(const sim::EngineResult& result) {
  std::size_t n = 0;
  for (const auto& detail : result.networks) n += detail.handovers.size();
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  net::register_net_builtins();
  net::NetworkLayout layout;
  layout.num_cells = 3;
  layout.ues_per_cell = 2;
  std::string network_json_out;
  auto extra = [&](int& i, int argc_in, char** argv_in) -> bool {
    auto value_of = [&](const char* flag) {
      return bench::detail::flag_value(i, argc_in, argv_in, flag);
    };
    if (const char* v = value_of("--cells")) {
      layout.num_cells = bench::detail::require_size("--cells", v, argv_in[0]);
      return true;
    }
    if (const char* v = value_of("--ues-per-cell")) {
      layout.ues_per_cell =
          bench::detail::require_size("--ues-per-cell", v, argv_in[0]);
      return true;
    }
    if (const char* v = value_of("--cell-spacing-m")) {
      layout.cell_spacing_m =
          bench::detail::require_f64("--cell-spacing-m", v, argv_in[0]);
      return true;
    }
    if (const char* v = value_of("--network-json-out")) {
      network_json_out = v;
      bench::JsonOutFile::check(v, "--network-json-out");
      return true;
    }
    return false;
  };
  const auto opts = bench::parse_sweep_cli(
      argc, argv, extra,
      "          [--cells N] [--ues-per-cell N] [--cell-spacing-m X]\n"
      "          [--network-json-out FILE]");
  std::optional<bench::JsonOutFile> network_file;
  if (!network_json_out.empty()) {
    network_file.emplace(network_json_out, "--network-json-out");
  }
  const bool shard_worker = opts.shard.enabled();

  sim::ExperimentSpec base;
  base.trials = opts.trials > 0 ? opts.trials : 10;
  base.seed = opts.seed > 0 ? opts.seed : 21;
  base.scenario.name = "indoor_crowd";
  // Shrink the link margin so a blocked serving beam is a true outage
  // (same regime as the Fig. 16/18 blockage benches).
  base.scenario.config.tx_power_dbm = 14.0;
  // A slow walk: enough motion for tracking to matter, not enough to
  // leave a 40 m cell within the 1 s run (handover experiments shrink
  // --cell-spacing-m instead).
  base.scenario.ue_velocity = {1.0, 0.0};
  base.network = layout;
  bench::apply_cli(opts, base);
  const std::vector<std::string> schemes =
      opts.controller.empty() ? kSchemes
                              : std::vector<std::string>{opts.controller};

  if (!shard_worker) {
    std::printf("=== Network: %zu cell(s) x %zu UE(s), crowd blockage ===\n",
                layout.num_cells, layout.ues_per_cell);
    std::printf("(scenario %s, %zu trial(s), seed %llu, jobs %zu; outage "
                "threshold %.0f dB)\n\n",
                base.scenario.name.c_str(), base.trials,
                static_cast<unsigned long long>(base.seed), opts.jobs,
                kOutageSnrDb);
  }

  Table table({"scheme", "availability", "reliability", "tput [Mb/s]",
               "handovers"});
  std::ostringstream network_os;
  for (const std::string& scheme : schemes) {
    sim::ExperimentSpec spec = base;
    spec.name = "network_" + scheme;
    spec.controller.name = scheme;
    const sim::EngineResult result = bench::run_campaign(spec, opts);
    if (bench::distributed_mode(opts)) {
      bench::emit_distributed(opts, spec.name, result);
    }
    if (shard_worker) {
      // Skipped trials hold no network: the merger writes the records.
      bench::emit_json(spec.name, result);
      continue;
    }
    sim::write_network_json(network_os, spec, result);
    const double avail = mean_availability(result, spec.run.duration_s);
    table.add_row({scheme, Table::num(avail, 4),
                   Table::num(result.aggregate.mean_reliability, 4),
                   Table::num(result.aggregate.mean_throughput_bps / 1e6, 1),
                   std::to_string(total_handovers(result))});
  }
  if (!shard_worker) {
    table.print(std::cout);
    std::printf("\n");
    std::fputs(network_os.str().c_str(), stdout);
  }

  if (network_file) {
    network_file->stream() << network_os.str();
    network_file->commit();
  }
  return 0;
}
