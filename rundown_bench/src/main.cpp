// main.cpp — the repository benchmark's measuring binary.
//
//   rundown_bench --workload casper_rundown|sor_fine|pool_serve --seed N
//                 --seconds S --trace 0|1 [--rates LOW,HIGH,OVERLOAD]
//                 [--out-dir DIR]
//
// Prints a metric table (name, value, unit, samples) and, last, one line
// `RESULT {...}` carrying every metric. rundown_bench/run.py builds this
// binary and turns that line into the benchmark's result record.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "rundown_bench: %s\nusage: rundown_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--rates LOW,HIGH,OVERLOAD] [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  rb::Options opt;
  opt.cpus = rb::online_cpus();
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else if (a == "--rates") {
      std::stringstream ss(v);
      std::string r;
      while (std::getline(ss, r, ',')) opt.rates.push_back(std::strtod(r.c_str(), nullptr));
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  std::printf("rundown_bench: workload=%s seed=%llu seconds=%g trace=%d cpus=%u\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.cpus);
  rb::Report rep;
  try {
    if (opt.workload == "casper_rundown") {
      rb::run_casper_rundown(opt, rep);
    } else if (opt.workload == "sor_fine") {
      rb::run_sor_fine(opt, rep);
    } else if (opt.workload == "pool_serve") {
      if (opt.rates.size() != 3) return usage("pool_serve needs --rates LOW,HIGH,OVERLOAD");
      rb::run_pool_serve(opt, rep);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rundown_bench: %s\n", e.what());
    return 3;
  }
  rep.print_table(opt.workload.c_str());
  rep.print_result_line();
  return 0;
}
