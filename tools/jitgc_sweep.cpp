// jitgc_sweep — run a (workload x policy) matrix on the parallel sweep
// engine and emit structured results.
//
//   jitgc_sweep > results.jsonl
//   jitgc_sweep --seconds=120 --seeds=3 --threads=8 > results.jsonl
//   jitgc_sweep --matrix=fig2 --intervals --workload=ycsb > fig2.jsonl
//   jitgc_sweep --format=csv > results.csv            # legacy run-level CSV
//
// Output is bit-identical for any --threads value: each run derives its seed
// from (base seed, run index) and runs buffer their records independently,
// written back in run order. JSONL schema: docs/model.md §"Structured
// metrics". See --help for the full flag list.
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "sim/cli_options.h"
#include "sim/sweep.h"

int main(int argc, char** argv) {
  using namespace jitgc;

  try {
    std::string error;
    const auto cli =
        sim::parse_sweep_cli(std::vector<std::string>(argv + 1, argv + argc), error);
    if (!cli) {
      std::fprintf(stderr, "jitgc_sweep: %s\n%s", error.c_str(), sim::sweep_usage().c_str());
      return 2;
    }
    if (cli->shared.show_help) {
      std::printf("%s", sim::sweep_usage().c_str());
      return 0;
    }

    const sim::SweepOptions& options = cli->options;
    const std::size_t threads =
        options.threads > 0 ? options.threads : ThreadPool::hardware_threads();
    std::fprintf(stderr, "jitgc_sweep: %zu runs (%zu cells x %zu seeds) on %zu threads\n",
                 cli->cells.size() * options.seeds, cli->cells.size(), options.seeds, threads);
    sim::run_sweep_to(std::cout, options, cli->cells);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jitgc_sweep: %s\n", e.what());
    return 2;
  }
  return 0;
}
