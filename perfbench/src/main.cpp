// p2prm_perfbench: runs one workload of the end-to-end benchmark and prints
// its result as one JSON line (see README.md). Progress and failed checks
// go to stderr.
//
//   p2prm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--span-dir <dir>] [--allocator <name>]
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "util/args.hpp"

namespace {

using perfbench::Options;
using perfbench::RunResult;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "p2prm_perfbench: " << why
            << "\nusage: p2prm_perfbench --workload "
               "<lazy-million|full-2k|stream-flash|fuzz-sweep> --seed <n> "
               "--seconds <s> --trace <0|1> [--span-dir <dir>] "
               "[--allocator <name>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  try {
    const p2prm::util::Args args(argc, argv);
    for (const char* key : {"workload", "seed", "seconds", "trace"}) {
      if (!args.has(key)) usage(std::string("--") + key + " is required");
    }
    o.workload = args.get("workload", "");
    o.seed = static_cast<std::uint64_t>(args.get_int("seed", 0));
    o.seconds = args.get_double("seconds", 0.0);
    o.trace = args.get_bool("trace", false);
    o.span_dir = args.get("span-dir", "");
    o.allocator = args.get("allocator", o.allocator);
  } catch (const std::exception& e) {
    usage(e.what());
  }
  return o;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  RunResult r;
  if (opts.workload == "lazy-million") {
    r = perfbench::run_lazy_million(opts);
  } else if (opts.workload == "full-2k") {
    r = perfbench::run_full_2k(opts);
  } else if (opts.workload == "stream-flash") {
    r = perfbench::run_stream_flash(opts);
  } else if (opts.workload == "fuzz-sweep") {
    r = perfbench::run_fuzz_sweep(opts);
  } else {
    usage("unknown workload " + opts.workload);
  }
  for (const std::string& e : r.errors) std::cerr << "CHECK FAILED: " << e << "\n";

  // Names and values only: run.py attaches the units BENCHMARK.json gives.
  std::string line = std::string("{\"correct\": ") +
                     (r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    line += (first ? "\"" : ", \"") + name + "\": " + number(value);
    first = false;
  }
  line += "}}";
  std::cout << line << std::endl;
  return 0;
}
