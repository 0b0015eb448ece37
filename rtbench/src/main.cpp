// rtbench: the repository's serving benchmark. Serves one workload
// (batch_unique | batch_zipf | live_tcp) against the full stack and
// prints one JSON record on its last stdout line. With --trace 0 the
// record holds the end-to-end metrics; with --trace 1 it replays the
// same inputs layer by layer (see trace.hpp). Run it through run.py,
// which builds it, adds the host fingerprint and enforces a watchdog.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "drive.hpp"
#include "inputs.hpp"
#include "measure.hpp"
#include "stack.hpp"
#include "trace.hpp"
#include "verify.hpp"

namespace rtbench {
namespace {

/// Stacks built per run; setup_s is their median.
constexpr std::size_t kSetups = 9;

struct Args {
  Workload workload = Workload::kBatchUnique;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "rtbench: %s\nusage: rtbench --workload "
               "batch_unique|batch_zipf|live_tcp --seed N --seconds S "
               "--trace 0|1\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      if (!parse_workload(value, &args.workload)) usage("unknown workload");
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) usage("flags take one value each");
  return args;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void print_record(const Args& args, const Result& result) {
  std::string out = "{\"workload\": " + json_string(to_string(args.workload));
  out += ", \"seed\": " + std::to_string(args.seed);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", args.seconds);
  out += ", \"seconds\": " + std::string(buf);
  out += std::string(", \"trace\": ") + (args.trace ? "1" : "0");
  out += std::string(", \"simd_int8\": ") +
         (RTBENCH_SIMD_INT8 ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"failures\": [";
  for (std::size_t i = 0; i < result.failures.size(); ++i) {
    out += (i ? ", " : "") + json_string(result.failures[i]);
  }
  out += "], \"notes\": {";
  bool first = true;
  for (const auto& [k, v] : result.notes) {
    out += (first ? "" : ", ") + json_string(k) + ": " + json_string(v);
    first = false;
  }
  out += "}, \"metrics\": {";
  first = true;
  for (const auto& [name, m] : result.metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += (first ? "" : ", ") + json_string(name) + ": {\"value\": " + buf +
           ", \"unit\": " + json_string(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  // Pin glibc's mmap threshold: left dynamic, it rises the first time a
  // large block is freed, and whether the set-ups' model matrices land
  // in the heap or in their own mappings then varies from run to run,
  // moving the resident set by tens of MB.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const double t_inputs = now_s();
  const Inputs inputs = make_inputs(
      args.workload, args.seed,
      args.trace ? args.seconds * kTracedWindowShare : args.seconds);
  std::fprintf(stderr, "rtbench: inputs generated in %.2f s\n",
               now_s() - t_inputs);
  // Hand freed input-generation scratch back to the OS first, so the
  // baseline holds only the inputs and the stack's pages all count.
  malloc_trim(0);
  const double base_rss = current_rss_mb();

  Result result;
  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  for (std::size_t i = 0; i < kSetups; ++i) {
    stack.reset();
    double seconds = 0.0;
    stack = build_stack(&seconds);
    setups.push_back(seconds);
  }

  if (args.trace) {
    run_traced(*stack, inputs, args.seconds, result);
  } else {
    result.set("setup_s", quantile(setups, 0.5), "s", setups.size());
    std::vector<Served> served =
        run_workload(*stack, inputs, args.seconds, result);
    if (args.workload == Workload::kBatchZipf) {
      std::vector<std::size_t> pool;
      for (std::size_t rank = 0; rank < inputs.utterances.size(); ++rank) {
        pool.push_back(rank);
      }
      for (Served& s : serve_each(*stack, inputs, pool, result)) {
        served.push_back(std::move(s));
      }
    }
    const double t_check = now_s();
    const std::size_t checked = check_outputs(*stack, inputs, served, result);
    std::fprintf(stderr, "rtbench: %zu streams checked in %.2f s\n", checked,
                 now_s() - t_check);
    result.notes["checked_streams"] = std::to_string(checked);
    const rtmobile::runtime::RuntimeStats fleet =
        stack->engine().stats().merged;
    result.notes["cache_hit_ratio"] = std::to_string(fleet.cache_hit_rate());
    result.notes["mean_step_width"] = std::to_string(fleet.mean_batch());
    result.metrics["peak_rss_mb"].value -= base_rss;
    result.set("fail_share",
               result.attempted > 0
                   ? static_cast<double>(result.failed) /
                         static_cast<double>(result.attempted)
                   : 1.0,
               "share", result.attempted);
  }
  print_record(args, result);
  return 0;
}

}  // namespace
}  // namespace rtbench

int main(int argc, char** argv) {
  try {
    return rtbench::run(rtbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rtbench: %s\n", e.what());
    return 1;
  }
}
