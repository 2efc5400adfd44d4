// Chaos harness CLI (driven by tools/run_chaos.sh).
//
//   chaos [--smoke] [--seeds N] [--ops N] [--drop R[,R...]] [--dup R]
//         [--protocols a,b,...] [--no-partition] [--base-seed N] [--batch]
//         [--stream] [--mutation NAME]
//
// --stream attaches the live streaming auditor to every run and
// cross-checks its verdict against the post-hoc oracle; --mutation
// injects a deliberate protocol bug that --stream must catch mid-run.
//
// Exit status: 0 when every execution passed its checker, 1 otherwise.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/chaos.hpp"

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::vector<double> split_csv_doubles(const std::string& csv) {
  std::vector<double> out;
  for (const std::string& item : split_csv(csv)) out.push_back(std::stod(item));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  mocc::chaos::ChaosParams params;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--smoke") {
      params = mocc::chaos::smoke_params();
    } else if (arg == "--seeds") {
      params.seeds_per_cell = std::stoul(next());
    } else if (arg == "--ops") {
      params.ops_per_process = std::stoul(next());
    } else if (arg == "--objects") {
      params.num_objects = std::stoul(next());
    } else if (arg == "--drop") {
      params.drop_rates = split_csv_doubles(next());
    } else if (arg == "--dup") {
      params.duplicate_rate = std::stod(next());
    } else if (arg == "--protocols") {
      params.protocols = split_csv(next());
    } else if (arg == "--no-partition") {
      params.partition = false;
    } else if (arg == "--base-seed") {
      params.base_seed = std::stoull(next());
    } else if (arg == "--batch") {
      params.batching = true;
    } else if (arg == "--stream") {
      params.stream = true;
    } else if (arg == "--mutation") {
      params.mutation = next();
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: chaos [--smoke] [--seeds N] [--ops N] [--objects N]\n"
                << "             [--drop R,R,...] [--dup R] [--protocols a,b,...]\n"
                << "             [--no-partition] [--base-seed N] [--batch]\n"
                << "             [--stream] [--mutation NAME]\n";
      return 0;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }

  const mocc::chaos::ChaosReport report = mocc::chaos::run_chaos(params, &std::cout);
  mocc::chaos::write_report(std::cout, params, report);
  return report.ok() ? 0 : 1;
}
