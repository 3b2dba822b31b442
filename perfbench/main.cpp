// mantis_perfbench: runs one benchmark workload for a time budget in this
// process and prints one JSON object with every repetition's host timings,
// deterministic outputs, virtual-time metrics and (traced runs) per-layer
// metrics. perfbench/run.py builds this binary, checks the outputs against
// the seed's reference and reduces the repetitions to the reported metrics.
//
//   mantis_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--threads <t>] [--scale <x>] [--out-dir <dir>]
//
// --trace 1 alternates untraced and traced repetitions (the ratio of their
// run times is the tracing overhead) and writes the benchmark's spans and the
// last traced repetition's profile into --out-dir when it ends.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::RepOptions;
using perfbench::RepResult;
using perfbench::SpanLog;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 4;
  double scale = 1.0;
  std::string out_dir;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "mantis_perfbench: %s\nusage: mantis_perfbench --workload "
               "<clos_dataplane|gray_reactive|route_churn> --seed <n> "
               "--seconds <s> --trace <0|1> [--threads <t>] [--scale <x>] "
               "[--out-dir <dir>]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      if (!a.trace && std::strcmp(v, "0") != 0) usage("--trace takes 0 or 1");
    } else if (k == "--threads") {
      a.threads = static_cast<int>(std::strtol(v, &end, 10));
    } else if (k == "--scale") {
      a.scale = std::strtod(v, &end);
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + k).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0) || a.threads < 1 || a.threads > 64 || !(a.scale > 0) ||
      a.scale > 1) {
    usage("out-of-range --seconds, --threads or --scale");
  }
  return a;
}

RepResult run_rep(const std::string& workload, const RepOptions& o, SpanLog& spans) {
  if (workload == "clos_dataplane") return perfbench::run_clos_dataplane(o, spans);
  if (workload == "gray_reactive") return perfbench::run_gray_reactive(o, spans);
  if (workload == "route_churn") return perfbench::run_route_churn(o, spans);
  usage(("unknown workload " + workload).c_str());
}

/// Peak resident memory of this process image, MiB. VmHWM rather than
/// getrusage: ru_maxrss keeps the parent's peak across fork + exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  std::fprintf(stderr, "mantis_perfbench: no VmHWM in /proc/self/status\n");
  std::exit(1);
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string values_json(const perfbench::Values& v) {
  std::string out = "{";
  for (const auto& [k, x] : v) out += (out.size() > 1 ? ", " : "") + quoted(k) + ": " + num(x);
  return out + "}";
}

std::string rep_json(const RepResult& r, bool traced) {
  std::string out = "{\"traced\": " + std::string(traced ? "true" : "false") +
                    ", \"peak_rss_mb\": " + num(peak_rss_mb()) +
                    ", \"setup_s\": " + num(r.setup_s) + ", \"run_s\": " +
                    num(r.run_s) + ", \"pkts\": " + num(r.pkts) +
                    ", \"dialogues\": " + num(r.dialogues) + ", \"outputs\": {";
  bool first = true;
  for (const auto& [k, v] : r.outputs) {
    out += (first ? "" : ", ") + quoted(k) + ": " + quoted(v);
    first = false;
  }
  out += "}, \"virtual\": " + values_json(r.virtual_metrics);
  if (traced) out += ", \"layers\": " + values_json(r.layers);
  return out + "}";
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  if (!f) {
    std::fprintf(stderr, "mantis_perfbench: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  SpanLog spans;
  std::vector<std::string> reps;
  std::string last_prof;
  double first_rep_rss_mb = 0;

  const auto t0 = std::chrono::steady_clock::now();
  // A traced run alternates untraced and traced repetitions, so it needs at
  // least one of each; an untraced run needs one.
  const std::size_t min_reps = args.trace ? 2 : 1;
  for (int i = 0;; ++i) {
    RepOptions o;
    o.seed = args.seed;
    o.threads = args.threads;
    o.scale = args.scale;
    o.traced = args.trace && i % 2 == 1;
    spans.rep = i;
    const RepResult r = run_rep(args.workload, o, spans);
    reps.push_back(rep_json(r, o.traced));
    if (o.traced) last_prof = r.prof_json;
    // Later repetitions only add allocator retention from earlier ones, so
    // the reported peak is the process's peak through its first repetition.
    if (i == 0) first_rep_rss_mb = peak_rss_mb();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    const double per_rep = elapsed / static_cast<double>(reps.size());
    // Stop before a repetition that would overrun the budget.
    if (reps.size() >= min_reps && elapsed + per_rep > args.seconds) break;
  }

  std::string files = "{}";
  if (args.trace && !args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed);
    write_file(stem + "-spans.json", spans.chrome_json());
    write_file(stem + "-prof.json", last_prof + "\n");
    files = "{\"spans\": " + quoted(stem + "-spans.json") + ", \"profile\": " +
            quoted(stem + "-prof.json") + "}";
  }

  std::string units = "{";
  for (const auto& [name, unit] : perfbench::layer_metric_units()) {
    units += (units.size() > 1 ? ", " : "") + quoted(name) + ": " + quoted(unit);
  }
  units += "}";

  std::ostringstream os;
  os << "{\"workload\": " << quoted(args.workload) << ", \"seed\": " << args.seed
     << ", \"threads\": " << args.threads << ", \"scale\": " << num(args.scale)
     << ", \"trace\": " << (args.trace ? "true" : "false")
     << ", \"host\": {\"cores\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
     << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
     << ", \"mantis_telemetry\": " << (PERFBENCH_TELEMETRY ? "true" : "false")
     << "}, \"peak_rss_mb\": " << num(first_rep_rss_mb)
     << ", \"layer_units\": " << units << ", \"files\": " << files
     << ", \"reps\": [";
  for (std::size_t i = 0; i < reps.size(); ++i) os << (i ? ", " : "") << reps[i];
  os << "]}\n";
  std::fputs(os.str().c_str(), stdout);
  return 0;
}
