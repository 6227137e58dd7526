// perfbench: runs one benchmark instance per process and prints it as one
// JSON line; perfbench/run.py drives it and aggregates.
//
//   perfbench list                       workload names, one per line
//   perfbench run <workload> <seed> <plain|sliced|traced>
//   perfbench selftest                   wrapper transparency + checks
//   perfbench host                       compiler and flags of this build

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "world.hpp"

namespace {

using namespace perfbench;

/// Median plus the highest percentile with at least ten samples beyond it.
struct TailStat {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;  ///< 0 when fewer than 20 samples.
  std::size_t n = 0;
};

double percentile_sorted(const std::vector<double>& xs, double p) {
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

TailStat tail_stat(std::vector<double> xs) {
  TailStat t;
  t.n = xs.size();
  if (xs.empty()) return t;
  std::sort(xs.begin(), xs.end());
  t.p50 = percentile_sorted(xs, 50.0);
  for (const double p : {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(xs.size()) * (100.0 - p) / 100.0 >= 10.0) {
      t.tail = percentile_sorted(xs, p);
      t.tail_pct = p;
      break;
    }
  }
  return t;
}

/// A "Vm...:" field of /proc/self/status in MB (0 if unreadable). VmHWM is
/// the peak of this process image alone; getrusage's ru_maxrss would also
/// carry the parent's size when the benchmark was spawned with vfork.
double proc_status_mb(const char* field) {
  double kb = 0.0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    const std::size_t n = std::strlen(field);
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, field, n) == 0) {
        kb = std::atof(line + n);
        break;
      }
    }
    std::fclose(f);
  }
  return kb / 1024.0;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_tail(const TailStat& t) {
  return "{\"p50\":" + json_number(t.p50) + ",\"tail\":" +
         json_number(t.tail) + ",\"pct\":" + json_number(t.tail_pct) +
         ",\"n\":" + std::to_string(t.n) + "}";
}

bool parse_mode(const std::string& s, Mode* out) {
  if (s == "plain") *out = Mode::kPlain;
  else if (s == "sliced") *out = Mode::kSliced;
  else if (s == "traced") *out = Mode::kTraced;
  else return false;
  return true;
}

/// World constructions per instance; run.py reports the median setup time.
constexpr int kSetupReps = 3;

int run_instance(Workload w, const std::string& name, std::uint64_t seed,
                 Mode mode, const std::string& mode_name) {
  // Set up several times and keep the last world: the median of the setup
  // times is steadier than one cold sample. Each earlier world is torn down
  // before the next is built, so peak memory stays one world's worth.
  // Memory is reported net of what the process held before the first
  // world: the runtime's own pages are not the workload's.
  const double base_rss_mb = proc_status_mb("VmRSS:");
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  for (int i = 0; i < kSetupReps; ++i) {
    world.reset();
    seams() = Seams{};
    world = std::make_unique<World>(w, seed, mode);
    setup_s.push_back(world->setup().total_s);
  }
  const RunReport report = world->run();
  const std::uint64_t digest = world->digest();
  const std::vector<CheckResult> checks = run_checks(world->snapshot());
  const Metrics layers = world->layer_counts(report);

  std::string out = "{\"workload\":" + json_string(name) +
                    ",\"seed\":" + std::to_string(seed) +
                    ",\"mode\":" + json_string(mode_name);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, digest);
  out += ",\"digest\":" + json_string(hex);
  out += ",\"setup_s\":[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    out += (i ? "," : "") + json_number(setup_s[i]);
  }
  out += "],\"run_s\":" + json_number(report.run_s);
  out += ",\"peak_rss_mb\":" +
         json_number(proc_status_mb("VmHWM:") - base_rss_mb);
  out += ",\"checks\":[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    out += std::string(i ? "," : "") + "{\"name\":" +
           json_string(checks[i].name) +
           ",\"ok\":" + (checks[i].ok ? "true" : "false") +
           ",\"detail\":" + json_string(checks[i].detail) + "}";
  }
  out += "],\"iter\":" + json_tail(tail_stat(world->iteration_times()));
  out += ",\"fct\":" + json_tail(tail_stat(world->fct_times()));
  out += ",\"slice_ms\":" + json_tail(tail_stat(report.slice_ms));
  out += ",\"layers\":{";
  for (std::size_t i = 0; i < layers.size(); ++i) {
    out += (i ? "," : "") + json_string(layers[i].first) + ":" +
           json_number(layers[i].second);
  }
  out += "},\"spans\":[";
  const std::vector<Span>& spans = world->spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out += std::string(i ? "," : "") + "{\"name\":" +
           json_string(spans[i].name) +
           ",\"start_s\":" + json_number(spans[i].start_s) +
           ",\"dur_s\":" + json_number(spans[i].dur_s) + "}";
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return 0;
}

// ----------------------------------------------------------------- selftest

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// One run's digest and snapshot.
struct Short {
  std::uint64_t digest = 0;
  Outcome outcome;
};

constexpr std::uint64_t kSelftestSeed = 1;

Short short_run(Workload w, Mode mode) {
  World world(w, kSelftestSeed, mode);
  world.run();
  return Short{world.digest(), world.snapshot()};
}

void expect_fails(const std::string& what, const Outcome& base,
                  const std::function<void(Outcome&)>& corrupt,
                  CheckResult (*check)(const Outcome&)) {
  Outcome o = base;
  corrupt(o);
  expect(!check(o).ok, "check fails on " + what);
}

int selftest() {
  // The seam wrappers and sliced driving must not change the model.
  Outcome mix;
  Outcome poisson;
  for (const std::string& name : workload_names()) {
    Workload w;
    parse_workload(name, &w);
    const Short plain = short_run(w, Mode::kPlain);
    const Short sliced = short_run(w, Mode::kSliced);
    const Short traced = short_run(w, Mode::kTraced);
    expect(sliced.digest == plain.digest, name + ": sliced digest == plain");
    expect(traced.digest == plain.digest, name + ": traced digest == plain");
    for (const CheckResult& r : run_checks(plain.outcome)) {
      expect(r.ok, name + ": " + r.name + " check passes " + r.detail);
    }
    if (w == Workload::kMixPacket) mix = plain.outcome;
    if (w == Workload::kPoissonFlowsim) poisson = plain.outcome;
  }

  // Each output check must be able to fail.
  expect_fails("a link that serialized packets it never admitted", mix,
               [](Outcome& o) { o.links[0].tx += 1000; },
               check_conservation);
  // A queue may hold one admitted packet on the transmitter, and a link
  // that went down may have flushed up to its fault drops; one packet past
  // that slack is a loss.
  expect_fails("a faultless link that lost admitted packets", mix,
               [](Outcome& o) {
                 for (LinkSnap& l : o.links) {
                   if (l.fault_drops == 0) {
                     l.enqueued += 2;
                     break;
                   }
                 }
               },
               check_conservation);
  expect_fails("a faulted link that lost more than it flushed", mix,
               [](Outcome& o) {
                 for (LinkSnap& l : o.links) {
                   if (l.fault_drops > 0) {
                     l.enqueued += l.fault_drops + 2;
                     break;
                   }
                 }
               },
               check_conservation);
  // A switch's count is exact only up to one packet per busy egress
  // transmitter, so the forwarding corruption exceeds that slack.
  expect_fails("a switch that forwarded packets no egress was offered", mix,
               [](Outcome& o) {
                 for (NodeSnap& n : o.nodes) {
                   if (n.is_switch) {
                     n.forwarded += static_cast<std::int64_t>(o.links.size());
                     break;
                   }
                 }
               },
               check_conservation);
  expect_fails("a switch that lost a packet", mix,
               [](Outcome& o) {
                 for (NodeSnap& n : o.nodes) {
                   if (n.is_switch) {
                     n.forwarded -= 1;
                     break;
                   }
                 }
               },
               check_conservation);
  expect_fails("a node that received more than was sent to it", mix,
               [](Outcome& o) { o.nodes.back().received += 1; },
               check_conservation);
  expect_fails("a job with no iteration", mix,
               [](Outcome& o) { o.jobs[0].clear(); }, check_iterations);
  expect_fails("iteration records out of order", mix,
               [](Outcome& o) {
                 std::swap(o.jobs[0][0], o.jobs[0][1]);
               },
               check_iterations);
  expect_fails("an iteration whose comm phase ends before it starts", mix,
               [](Outcome& o) {
                 o.jobs[0][0].comm_end = o.jobs[0][0].comm_start - 1;
               },
               check_iterations);
  expect_fails("a lost transfer", mix,
               [](Outcome& o) { o.traffic.completed -= 1; }, check_traffic);
  expect_fails("a completion the records do not show", mix,
               [](Outcome& o) { o.traffic.done_records -= 1; },
               check_traffic);
  expect_fails("an undrained flowsim run", poisson,
               [](Outcome& o) {
                 o.traffic.completed -= 1;
                 o.traffic.open += 1;
               },
               check_traffic);

  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench list\n"
               "       perfbench run <workload> <seed> "
               "<plain|sliced|traced>\n"
               "       perfbench selftest\n"
               "       perfbench host\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "list") {
    for (const std::string& name : workload_names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (cmd == "selftest") return selftest();
  if (cmd == "host") {
    std::printf("%s\n%s\n", PERFBENCH_COMPILER, PERFBENCH_FLAGS);
    return 0;
  }
  if (cmd != "run" || argc < 5) return usage();
  Workload w;
  Mode mode;
  if (!parse_workload(argv[2], &w) || !parse_mode(argv[4], &mode)) {
    return usage();
  }
  const std::uint64_t seed = std::strtoull(argv[3], nullptr, 10);
  return run_instance(w, argv[2], seed, mode, argv[4]);
}
