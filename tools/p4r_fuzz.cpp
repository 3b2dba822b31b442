// p4r_fuzz: differential fuzzing driver for the P4R stack.
//
// Each iteration generates a seeded random P4R program + packet trace
// (check::generate_scenario), runs it through the reference interpreter and
// the full compiled stack (check::run_diff), and reports any disagreement.
// Diverging scenarios are greedily minimized and written as standalone text
// repros; `p4r_fuzz --replay <file>` re-runs one.
//
// Usage:
//   p4r_fuzz [--seed S] [--iters N] [--minimize] [--corpus-dir DIR]
//            [--metrics FILE] [--replay FILE] [--dump SEED] [--quiet]
//            [--fabric] [--resources]
//
// --fabric switches to the multi-switch differential mode: each iteration
// generates a seeded fabric scenario (topology + traffic + fault schedule),
// runs it on the sequential event loop and on the parallel fabric engine,
// and diffs every determinism surface (metrics JSON, link stats, fault log,
// flight-recorder dump). A divergence is an equivalence bug; the scenario
// is reproducible from its seed alone.
//
// --resources switches to resource-budget fuzzing: each iteration pairs the
// generated program with a *randomized* RMT resource model and asserts
// graceful degradation — an over-budget program must be rejected with a
// structured ResourceExhausted diagnostic naming the exhausted resource
// (never a crash, an unstructured error, or a silent mis-pack), and a
// fitting program must still pass the differential check under that model.
// Violations are written as `resource_seed_*.repro` files that bundle the
// model with the scenario; `--replay` recognizes the format.
//
// Numbers are decimal. Exit status: 0 when every iteration agreed (or was
// skipped), 1 on any divergence (or, with --resources, any contract
// violation), 2 on usage errors.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "check/diff.hpp"
#include "check/fabric_diff.hpp"
#include "check/gen.hpp"
#include "check/minimize.hpp"
#include "check/resource_fuzz.hpp"
#include "telemetry/metrics.hpp"
#include "util/check.hpp"
#include "util/flags.hpp"

namespace {

struct Args {
  std::uint64_t seed = 1;
  std::uint64_t iters = 100;
  bool minimize = false;
  bool quiet = false;
  std::string corpus_dir;
  std::string metrics_path;
  std::string replay_path;
  std::uint64_t dump_seed = 0;
  bool dump = false;
  bool fabric = false;
  bool resources = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed S] [--iters N] [--minimize] "
               "[--corpus-dir DIR] [--metrics FILE] [--replay FILE] "
               "[--quiet] [--fabric] [--resources]\n",
               argv0);
  return 2;
}

/// False on an unknown flag; throws FlagError on a missing or bad value.
bool parse_args(int argc, char** argv, Args& a) {
  using mantis::flag_value;
  using mantis::parse_number;
  for (int i = 1; i < argc; ++i) {
    const std::string opt = argv[i];
    if (opt == "--seed") {
      a.seed = parse_number<std::uint64_t>("--seed", flag_value(argc, argv, i));
    } else if (opt == "--iters") {
      a.iters =
          parse_number<std::uint64_t>("--iters", flag_value(argc, argv, i));
    } else if (opt == "--minimize") {
      a.minimize = true;
    } else if (opt == "--fabric") {
      a.fabric = true;
    } else if (opt == "--resources") {
      a.resources = true;
    } else if (opt == "--quiet") {
      a.quiet = true;
    } else if (opt == "--corpus-dir") {
      a.corpus_dir = flag_value(argc, argv, i);
    } else if (opt == "--metrics") {
      a.metrics_path = flag_value(argc, argv, i);
    } else if (opt == "--replay") {
      a.replay_path = flag_value(argc, argv, i);
    } else if (opt == "--dump") {
      a.dump = true;
      a.dump_seed =
          parse_number<std::uint64_t>("--dump", flag_value(argc, argv, i));
    } else {
      return false;
    }
  }
  return true;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw mantis::UserError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void report_divergences(const mantis::check::DiffResult& r) {
  for (const auto& d : r.divergences) {
    std::fprintf(stderr, "  epoch %u [%s] %s\n", d.epoch, d.surface.c_str(),
                 d.detail.c_str());
  }
}

int replay(const Args& args) {
  const std::string text = read_file(args.replay_path);
  // Resource repros bundle a model line with the scenario; replay the full
  // graceful-degradation contract rather than the plain differential check.
  if (text.rfind("# p4r_fuzz resource repro", 0) == 0) {
    const auto rr = mantis::check::parse_resource_repro(text);
    const auto res =
        mantis::check::run_resource_iteration(rr.scenario, rr.model);
    std::printf("%s: %s", args.replay_path.c_str(),
                std::string(mantis::check::resource_fuzz_kind_name(res.kind))
                    .c_str());
    if (res.kind == mantis::check::ResourceFuzzResult::Kind::kRejected) {
      std::printf(" (%s)", mantis::p4::rmt_resource_name(res.resource));
    }
    if (!res.detail.empty()) std::printf(": %s", res.detail.c_str());
    std::printf("\n");
    return res.kind == mantis::check::ResourceFuzzResult::Kind::kViolation ? 1
                                                                           : 0;
  }
  const mantis::check::Scenario s = mantis::check::parse_scenario(text);
  const auto r = mantis::check::run_diff(s);
  std::printf("%s: %s", args.replay_path.c_str(),
              std::string(mantis::check::outcome_name(r.outcome)).c_str());
  if (!r.skip_reason.empty()) std::printf(" (%s)", r.skip_reason.c_str());
  std::printf("\n");
  report_divergences(r);
  return r.diverged() ? 1 : 0;
}

// Resource-budget campaign: every scenario that compiles on the default
// model is re-compiled under a seeded random RmtResourceModel. The contract
// under ANY model is: structured rejection (ResourceExhausted) or a fit
// whose artifacts independently re-verify and still pass the differential
// check. Anything else — crash, unstructured error, silent mis-pack,
// divergence — is a violation and fails the campaign.
int resources_campaign(const Args& args) {
  using Kind = mantis::check::ResourceFuzzResult::Kind;
  mantis::telemetry::MetricsRegistry metrics;
  std::uint64_t fit = 0, rejected = 0, skipped = 0, violations = 0;
  std::uint64_t by_resource[16] = {};

  for (std::uint64_t it = 0; it < args.iters; ++it) {
    const std::uint64_t seed = mantis::check::iteration_seed(args.seed, it);
    const auto model = mantis::check::random_resource_model(seed);
    mantis::check::ResourceFuzzResult r;
    try {
      const auto s = mantis::check::generate_scenario(seed);
      metrics.counter("check.resource_fuzz.iterations").add();
      r = mantis::check::run_resource_iteration(s, model);
      switch (r.kind) {
        case Kind::kFit: ++fit; break;
        case Kind::kSkipped: ++skipped; break;
        case Kind::kRejected: {
          ++rejected;
          const auto idx = static_cast<std::size_t>(r.resource);
          if (idx < 16) ++by_resource[idx];
          metrics
              .counter(std::string("check.resource_fuzz.rejected.") +
                       mantis::p4::rmt_resource_name(r.resource))
              .add();
          break;
        }
        case Kind::kViolation: break;  // handled below with the repro dump
      }
      if (r.kind == Kind::kViolation) {
        ++violations;
        metrics.counter("check.resource_fuzz.violations").add();
        std::fprintf(stderr, "iter %llu (seed %llu): VIOLATION  %s\n",
                     static_cast<unsigned long long>(it),
                     static_cast<unsigned long long>(seed), r.detail.c_str());
        std::fprintf(stderr, "  %s\n", model.describe().c_str());
        mantis::check::ResourceRepro repro{model, s};
        if (args.minimize) {
          repro = mantis::check::minimize_resource_repro(repro);
        }
        const std::string text =
            mantis::check::serialize_resource_repro(repro);
        if (!args.corpus_dir.empty()) {
          const std::string path = args.corpus_dir + "/resource_seed_" +
                                   std::to_string(seed) + ".repro";
          std::ofstream out(path);
          out << text;
          std::fprintf(stderr, "  repro written to %s\n", path.c_str());
        } else {
          std::fprintf(stderr, "---- repro ----\n%s---- end ----\n",
                       text.c_str());
        }
      }
    } catch (const std::exception& e) {
      // run_resource_iteration classifies everything it anticipates; an
      // exception escaping it IS the crash the campaign exists to catch.
      ++violations;
      std::fprintf(stderr, "iter %llu (seed %llu): VIOLATION  escaped: %s\n",
                   static_cast<unsigned long long>(it),
                   static_cast<unsigned long long>(seed), e.what());
    }
    if (!args.quiet && (it + 1) % 50 == 0) {
      std::fprintf(stderr,
                   "progress: %llu/%llu (fit %llu, rejected %llu, "
                   "skipped %llu, violations %llu)\n",
                   static_cast<unsigned long long>(it + 1),
                   static_cast<unsigned long long>(args.iters),
                   static_cast<unsigned long long>(fit),
                   static_cast<unsigned long long>(rejected),
                   static_cast<unsigned long long>(skipped),
                   static_cast<unsigned long long>(violations));
    }
  }

  if (!args.metrics_path.empty()) {
    mantis::telemetry::write_text_file(
        args.metrics_path,
        mantis::telemetry::report_json("p4r_fuzz_resources", {}, metrics));
  }
  std::printf(
      "p4r_fuzz --resources: %llu iterations: %llu fit, %llu rejected, "
      "%llu skipped, %llu violations\n",
      static_cast<unsigned long long>(args.iters),
      static_cast<unsigned long long>(fit),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(skipped),
      static_cast<unsigned long long>(violations));
  for (std::size_t i = 0; i < 16; ++i) {
    if (by_resource[i] == 0) continue;
    std::printf("  rejected by %s: %llu\n",
                mantis::p4::rmt_resource_name(
                    static_cast<mantis::p4::RmtResource>(i)),
                static_cast<unsigned long long>(by_resource[i]));
  }
  return violations != 0 ? 1 : 0;
}

int fabric_campaign(const Args& args) {
  mantis::telemetry::MetricsRegistry metrics;
  std::uint64_t diverged = 0;
  for (std::uint64_t it = 0; it < args.iters; ++it) {
    const std::uint64_t seed = mantis::check::iteration_seed(args.seed, it);
    const auto spec = mantis::check::generate_fabric_scenario(seed);
    const auto r = mantis::check::run_fabric_diff(spec, &metrics);
    if (r.diverged) {
      ++diverged;
      std::fprintf(stderr, "iter %llu (seed %llu): DIVERGED  %s\n",
                   static_cast<unsigned long long>(it),
                   static_cast<unsigned long long>(seed),
                   spec.summary().c_str());
      for (const auto& d : r.divergences) {
        std::fprintf(stderr, "  %s\n", d.c_str());
      }
    } else if (!args.quiet && (it + 1) % 50 == 0) {
      std::fprintf(stderr, "progress: %llu/%llu (%llu diverged)\n",
                   static_cast<unsigned long long>(it + 1),
                   static_cast<unsigned long long>(args.iters),
                   static_cast<unsigned long long>(diverged));
    }
  }
  if (!args.metrics_path.empty()) {
    mantis::telemetry::write_text_file(
        args.metrics_path,
        mantis::telemetry::report_json("p4r_fuzz_fabric", {}, metrics));
  }
  std::printf("p4r_fuzz --fabric: %llu scenarios, %llu diverged\n",
              static_cast<unsigned long long>(args.iters),
              static_cast<unsigned long long>(diverged));
  return diverged != 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse_args(argc, argv, args)) return usage(argv[0]);
  } catch (const mantis::FlagError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  try {
    if (args.dump) {
      std::printf("%s", mantis::check::serialize_scenario(
                            mantis::check::generate_scenario(args.dump_seed))
                            .c_str());
      return 0;
    }
    if (!args.replay_path.empty()) return replay(args);
    if (args.fabric) return fabric_campaign(args);
    if (args.resources) return resources_campaign(args);

    mantis::telemetry::MetricsRegistry metrics;
    std::uint64_t diverged = 0, agreed = 0, agreed_error = 0, skipped = 0;

    for (std::uint64_t it = 0; it < args.iters; ++it) {
      const std::uint64_t seed = mantis::check::iteration_seed(args.seed, it);
      mantis::check::Scenario s = mantis::check::generate_scenario(seed);
      metrics.counter("check.fuzz.iterations").add();
      const auto r = mantis::check::run_diff(s, &metrics);
      switch (r.outcome) {
        case mantis::check::Outcome::kAgreed: ++agreed; break;
        case mantis::check::Outcome::kAgreedError: ++agreed_error; break;
        case mantis::check::Outcome::kSkipped:
          ++skipped;
          if (!args.quiet) {
            std::fprintf(stderr, "iter %llu (seed %llu): skipped: %s\n",
                         static_cast<unsigned long long>(it),
                         static_cast<unsigned long long>(seed),
                         r.skip_reason.c_str());
          }
          break;
        case mantis::check::Outcome::kDiverged: {
          ++diverged;
          metrics.counter("check.fuzz.divergences").add();
          std::fprintf(stderr, "iter %llu (seed %llu): DIVERGED\n",
                       static_cast<unsigned long long>(it),
                       static_cast<unsigned long long>(seed));
          report_divergences(r);
          mantis::check::Scenario repro = s;
          if (args.minimize) {
            mantis::check::MinimizeStats st;
            repro = mantis::check::minimize_scenario(s, {}, &st);
            std::fprintf(stderr,
                         "  minimized: %zu reductions in %zu runs\n",
                         st.accepted, st.runs);
          }
          const std::string text = mantis::check::serialize_scenario(repro);
          if (!args.corpus_dir.empty()) {
            const std::string path = args.corpus_dir + "/diverge_seed_" +
                                     std::to_string(seed) + ".repro";
            std::ofstream out(path);
            out << text;
            std::fprintf(stderr, "  repro written to %s\n", path.c_str());
            if (args.minimize) {
              // The minimizer guarantees the final repro still diverges;
              // rerun it to capture its flight-recorder state (driver ops,
              // reaction records, switch snapshot at the divergence).
              const auto rr = mantis::check::run_diff(repro);
              const std::string& mfr =
                  rr.flight_dump.empty() ? r.flight_dump : rr.flight_dump;
              if (!mfr.empty()) {
                const std::string mfr_path = args.corpus_dir +
                                             "/diverge_seed_" +
                                             std::to_string(seed) + ".mfr";
                std::ofstream mout(mfr_path);
                mout << mfr;
                std::fprintf(stderr, "  flight recorder written to %s\n",
                             mfr_path.c_str());
              }
            }
          } else {
            std::fprintf(stderr, "---- repro ----\n%s---- end ----\n",
                         text.c_str());
          }
          break;
        }
      }
      if (!args.quiet && (it + 1) % 50 == 0) {
        std::fprintf(stderr,
                     "progress: %llu/%llu (agreed %llu, skipped %llu, "
                     "agreed-error %llu, diverged %llu)\n",
                     static_cast<unsigned long long>(it + 1),
                     static_cast<unsigned long long>(args.iters),
                     static_cast<unsigned long long>(agreed),
                     static_cast<unsigned long long>(skipped),
                     static_cast<unsigned long long>(agreed_error),
                     static_cast<unsigned long long>(diverged));
      }
    }

    if (!args.metrics_path.empty()) {
      mantis::telemetry::write_text_file(
          args.metrics_path,
          mantis::telemetry::report_json("p4r_fuzz", {}, metrics));
    }
    std::printf(
        "p4r_fuzz: %llu iterations: %llu agreed, %llu skipped, "
        "%llu agreed-error, %llu diverged\n",
        static_cast<unsigned long long>(args.iters),
        static_cast<unsigned long long>(agreed),
        static_cast<unsigned long long>(skipped),
        static_cast<unsigned long long>(agreed_error),
        static_cast<unsigned long long>(diverged));
    return diverged != 0 ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "p4r_fuzz: %s\n", e.what());
    return 2;
  }
}
