/// \file llbench.cpp
/// Benchmark harness: runs one named workload against the simulator's
/// public API and prints what it measured as one JSON line (the last line
/// of stdout). perfbench/run.py builds this binary, runs it and turns that
/// line into the result BENCHMARK.json describes.
///
///   llbench --workload=<name> [--seed=42] [--seconds=10] [--trace=0|1]
///           [--trace-out=<chrome trace path>]

#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

int main(int argc, char** argv) {
  ll::util::Flags flags("llbench", "Linger-Longer end-to-end benchmark harness.");
  auto workload = flags.add_string(
      "workload", "", "cluster_large, cluster_sharded, paper_sweep or serve_open");
  auto seed = flags.add_uint64("seed", 42, "input seed");
  auto seconds = flags.add_double("seconds", 10.0, "measured seconds per run");
  auto trace = flags.add_int("trace", 0, "1 = traced run (per-layer metrics)");
  auto trace_out = flags.add_string("trace-out", "llbench_trace.json",
                                    "Chrome trace written by traced runs");
  llbench::Options opt;
  try {
    flags.parse(argc, const_cast<const char**>(argv));
    opt.workload = *workload;
    opt.seed = *seed;
    opt.seconds = *seconds;
    opt.trace = *trace != 0;
    opt.trace_out = *trace_out;
  } catch (const std::exception& e) {
    std::cerr << "llbench: " << e.what() << "\n";
    return 2;
  }

  llbench::Outcome out;
  try {
    if (opt.workload == "cluster_large") {
      out = llbench::run_cluster_large(opt);
    } else if (opt.workload == "cluster_sharded") {
      out = llbench::run_cluster_sharded(opt);
    } else if (opt.workload == "paper_sweep") {
      out = llbench::run_paper_sweep(opt);
    } else if (opt.workload == "serve_open") {
      out = llbench::run_serve_open(opt);
    } else {
      std::cerr << "llbench: unknown workload '" << opt.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "llbench: " << opt.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  for (const std::string& line : out.notes) std::cout << line << "\n";
  std::cout << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"digest\": \"" << out.digest << "\", \"metrics\": {";
  const char* sep = "";
  char buf[64];
  for (const auto& [name, value] : out.metrics) {
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");  // run.py counts it as failed
    }
    std::cout << sep << "\"" << ll::util::json::escape(name) << "\": " << buf;
    sep = ", ";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
