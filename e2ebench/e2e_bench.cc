// e2e_bench — end-to-end XML -> dedup-output benchmark (README.md).
//
//   e2e_bench info
//   e2e_bench setup --workload W --seed N --size full|smoke --dir D
//   e2e_bench run   --workload W --dir D --seconds S --trace 0|1
//                   --spans FILE
//
// `info` prints each workload's engine threads. `setup` generates the
// workload's corpus with src/datagen from the seed, writes it and the
// SXNM configuration into D, and times that kSetupRepeats times. `run` never
// generates anything: it reads D/config.xml and D/data.xml
// and times the sxnm_cli path closed-loop, one job at a time:
//
//   xml::ParseFile -> core::Detector::Run -> core::Deduplicate
//                  -> xml::WriteDocumentToFile
//
// With --trace 0 every iteration runs with observability off. With
// --trace 1 observability-off and metrics-on iterations alternate; the
// metrics-on ones record spans around the four calls (plus the detector's
// KG/SW/TC phases as children of `detect`), give the per-layer numbers and
// have their spans written to FILE.
// Every iteration's output is checked (see CheckIteration).
//
// Each subcommand prints one JSON object as its last line of stdout.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "datagen/freedb.h"
#include "datagen/movies.h"
#include "eval/gold.h"
#include "eval/metrics.h"
#include "persist/io.h"
#include "sxnm/config_xml.h"
#include "sxnm/dedup_writer.h"
#include "sxnm/detector.h"
#include "util/proc_stat.h"
#include "util/simd.h"
#include "util/status.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xml/xpath.h"

namespace {

namespace fs = std::filesystem;
using sxnm::util::Result;
using sxnm::util::Status;

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  size_t full_size;   // movies or discs generated at --size full
  size_t smoke_size;  // ... at --size smoke (seconds for all three)
  const char* top_candidate;
  bool parallel;  // min(4, nproc) engine threads; otherwise 1
};

constexpr Workload kWorkloads[] = {
    {"ds1_movies", 30000, 1200, "movie", true},
    {"repeated_subtree", 10000, 400, "movie", false},
    {"freedb_ds3", 20000, 800, "disc", true},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// CPUs this process may run on, as `nproc` counts them.
size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return std::max(1u, std::thread::hardware_concurrency());
}

size_t EngineThreads(const Workload& w) {
  return w.parallel ? std::min<size_t>(Nproc(), 4) : 1;
}

// The dirty generator gets a seed of its own, derived from the workload
// seed, so the clean corpus and its pollution vary independently.
uint64_t DirtySeed(uint64_t seed) { return seed * 0x9E3779B97F4A7C15ull + 1; }

Result<sxnm::xml::Document> GenerateCorpus(const Workload& w, size_t size,
                                           uint64_t seed) {
  using namespace sxnm::datagen;
  const std::string name = w.name;
  if (name == "freedb_ds3") return GenerateDataSet3(size, seed);
  MovieDataOptions options;
  options.num_movies = size;
  options.seed = seed;
  sxnm::xml::Document clean = GenerateCleanMovies(options);
  DirtyOptions dirty = name == "ds1_movies"
                           ? DataSet1DirtyPreset(DirtySeed(seed))
                           : RepeatedSubtreePreset(DirtySeed(seed));
  return MakeDirty(clean, dirty);
}

Result<sxnm::core::Config> WorkloadConfig(const Workload& w) {
  using namespace sxnm::datagen;
  const std::string name = w.name;
  Result<sxnm::core::Config> config =
      name == "ds1_movies"         ? MovieConfig(10)
      : name == "repeated_subtree" ? MovieScalabilityConfig(3)
                                   : Ds3Config(10);
  if (!config.ok()) return config;
  config->set_num_threads(EngineThreads(w));
  return config;
}

// ------------------------------------------------------------------ helpers

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double NowSeconds() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Min(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

constexpr double kMiB = 1024.0 * 1024.0;

double RssMiB() {
  return sxnm::util::ReadProcMemory().rss_bytes / kMiB;
}

// High-water RSS of this process. ReadProcMemory's peak comes from
// getrusage, which reports the same figure as VmHWM.
double PeakRssMiB() {
  return sxnm::util::ReadProcMemory().peak_rss_bytes / kMiB;
}

// Returns freed heap pages to the kernel so every iteration starts from
// the same heap state (and RSS growth across a call is observable).
void ReleaseFreeHeap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

// Digest of one candidate's duplicate-pair set (ordinal pairs, sorted by
// the detector).
uint64_t PairDigest(const sxnm::core::CandidateResult& cand) {
  uint64_t h = Fnv1a(kFnvOffset, cand.name.data(), cand.name.size());
  for (const auto& pair : cand.duplicate_pairs) {
    uint64_t ends[2] = {pair.first, pair.second};
    h = Fnv1a(h, ends, sizeof(ends));
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
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

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// ------------------------------------------------------------------- spans

struct Span {
  std::string name;
  std::string parent;  // empty for the root
  double start_s = 0.0;
  double end_s = 0.0;
  double Seconds() const { return end_s - start_s; }
};

const Span* FindSpan(const std::vector<Span>& spans, const std::string& name) {
  for (const Span& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

// Children of every span must lie inside it, in order, without overlap.
// That implies their durations cannot sum to more than the parent's.
std::string ReconcileSpans(const std::vector<Span>& spans) {
  constexpr double kSlack = 1e-6;  // clock read granularity
  for (const Span& parent : spans) {
    double cursor = parent.start_s;
    for (const Span& child : spans) {
      if (child.parent != parent.name) continue;
      if (child.start_s + kSlack < cursor) {
        return "span " + child.name + " overlaps its previous sibling";
      }
      if (child.end_s > parent.end_s + kSlack) {
        return "span " + child.name + " ends after its parent " + parent.name;
      }
      cursor = child.end_s;
    }
  }
  return "";
}

// A span's duration minus the time its children cover.
double SelfSeconds(const std::vector<Span>& spans, const std::string& name) {
  double self = FindSpan(spans, name)->Seconds();
  for (const Span& s : spans) {
    if (s.parent == name) self -= s.Seconds();
  }
  return self;
}

// --------------------------------------------------------------- iteration

// One closed-loop job and what the benchmark needs from it.
struct Iteration {
  std::string error;  // empty when every call and check passed
  double e2e_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mib = 0.0;  // process high-water RSS after the write
  // Filled on traced iterations only.
  std::string run_id;  // shared by all spans of the job
  std::vector<Span> spans;
  double parse_rss_mib = 0.0;
  double detect_cpu_s = 0.0;
  sxnm::obs::MetricsSnapshot metrics;
  // Output facts for the checks and the report.
  std::map<std::string, uint64_t> digests;
  std::map<std::string, size_t> instances;
  size_t elements_removed = 0;
  uint64_t output_bytes = 0;
  std::optional<sxnm::eval::PairMetrics> quality;
};

// Writes the traced jobs' spans, one run id per job.
void WriteSpans(const std::string& path, const std::vector<Iteration>& runs) {
  std::ostringstream os;
  os << "{\"time_unit\": \"s\", \"runs\": [";
  for (size_t r = 0; r < runs.size(); ++r) {
    os << (r ? ",\n" : "\n") << "  {\"run_id\": " << JsonString(runs[r].run_id)
       << ", \"spans\": [";
    const auto& spans = runs[r].spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      os << (i ? ", " : "") << "{\"name\": " << JsonString(spans[i].name)
         << ", \"parent\": "
         << (spans[i].parent.empty() ? "null" : JsonString(spans[i].parent))
         << ", \"start\": " << JsonNumber(spans[i].start_s)
         << ", \"end\": " << JsonNumber(spans[i].end_s) << "}";
    }
    os << "]}";
  }
  os << "\n]}\n";
  Status wrote = sxnm::persist::AtomicWriteFile(path, os.str());
  if (!wrote.ok()) {
    std::fprintf(stderr, "cannot write spans %s: %s\n", path.c_str(),
                 wrote.ToString().c_str());
  }
}

struct RunContext {
  std::string data_path;
  std::string out_path;
  sxnm::core::Config config;  // observability as loaded (off)
  sxnm::core::Config traced_config;
  const sxnm::core::CandidateConfig* top = nullptr;
};

// Output checks, outside the timed interval: the run is not degraded,
// the written XML parses again, and its count of top-candidate elements
// equals the top candidate's instances minus the members its clusters
// removed. With a single candidate that removed count is exactly
// DedupStats::elements_removed.
std::string CheckIteration(const RunContext& ctx,
                           const sxnm::core::DetectionResult& result,
                           const sxnm::core::DedupStats& stats) {
  if (result.degraded()) return "detection degraded";
  const sxnm::core::CandidateResult* top = result.Find(ctx.top->name);
  if (top == nullptr) return "no result for top candidate";
  size_t top_removed = 0;
  for (const auto& cluster : top->clusters.NonTrivialClusters()) {
    top_removed += cluster.size() - 1;
  }
  if (result.candidates.size() == 1 && top_removed != stats.elements_removed) {
    return "elements_removed disagrees with the top candidate's clusters";
  }
  if (stats.elements_removed < top_removed) {
    return "elements_removed below the top candidate's removals";
  }
  auto reparsed = sxnm::xml::ParseFile(ctx.out_path);
  if (!reparsed.ok()) {
    return "output does not parse: " + reparsed.status().ToString();
  }
  auto path = sxnm::xml::XPath::Parse(ctx.top->absolute_path_str);
  if (!path.ok()) return path.status().ToString();
  auto kept = path->SelectFromRoot(static_cast<const sxnm::xml::Document&>(
      reparsed.value()));
  if (!kept.ok()) return kept.status().ToString();
  if (kept->size() != top->num_instances - top_removed) {
    return "output holds " + std::to_string(kept->size()) + " " +
           ctx.top->name + " elements, expected " +
           std::to_string(top->num_instances - top_removed);
  }
  return "";
}

Iteration RunIteration(const RunContext& ctx, bool traced, bool with_quality) {
  Iteration it;
  std::vector<Span>& spans = it.spans;
  auto open_span = [&](const char* name, const char* parent) {
    if (traced) spans.push_back({name, parent, NowSeconds(), 0.0});
  };
  auto close_span = [&]() {
    if (traced) spans.back().end_s = NowSeconds();
  };

  const sxnm::core::Config& config = traced ? ctx.traced_config : ctx.config;
  double rss_before = traced ? RssMiB() : 0.0;
  double cpu0 = CpuSeconds();
  double t0 = NowSeconds();
  if (traced) spans.push_back({"run", "", t0, 0.0});

  open_span("parse", "run");
  auto doc = sxnm::xml::ParseFile(ctx.data_path);
  close_span();
  if (!doc.ok()) {
    it.error = "parse: " + doc.status().ToString();
    return it;
  }
  if (traced) it.parse_rss_mib = RssMiB() - rss_before;

  open_span("detect", "run");
  double detect_cpu0 = traced ? CpuSeconds() : 0.0;
  sxnm::core::Detector detector(config);
  auto result = detector.Run(doc.value());
  if (traced) it.detect_cpu_s = CpuSeconds() - detect_cpu0;
  close_span();
  if (!result.ok()) {
    it.error = "detect: " + result.status().ToString();
    return it;
  }

  open_span("dedup", "run");
  sxnm::core::DedupStats stats;
  auto deduped = sxnm::core::Deduplicate(
      doc.value(), result.value(), sxnm::core::RepresentativeStrategy::kRichest,
      &stats);
  close_span();
  if (!deduped.ok()) {
    it.error = "dedup: " + deduped.status().ToString();
    return it;
  }

  open_span("write", "run");
  bool wrote = sxnm::xml::WriteDocumentToFile(deduped.value(), ctx.out_path);
  close_span();
  double t1 = NowSeconds();
  it.e2e_s = t1 - t0;
  it.cpu_s = CpuSeconds() - cpu0;
  it.peak_rss_mib = PeakRssMiB();
  if (!wrote) {
    it.error = "write failed";
    return it;
  }

  if (traced) {
    spans.front().end_s = t1;
    // The detector reports its phases as accumulated durations; they
    // become children of `detect`, laid end to end from its start.
    const Span detect = *FindSpan(spans, "detect");
    double cursor = detect.start_s;
    for (const auto& [phase, seconds] : result->timer.Phases()) {
      const char* name = phase == sxnm::core::kPhaseKeyGeneration ? "kg"
                         : phase == sxnm::core::kPhaseSlidingWindow
                             ? "sw"
                         : phase == sxnm::core::kPhaseTransitiveClosure
                             ? "tc"
                             : nullptr;
      if (name == nullptr) continue;
      spans.push_back({name, "detect", cursor, cursor + seconds});
      cursor += seconds;
    }
    it.metrics = result->metrics;
  }

  it.elements_removed = stats.elements_removed;
  for (const auto& cand : result->candidates) {
    it.digests[cand.name] = PairDigest(cand);
    it.instances[cand.name] = cand.num_instances;
  }
  std::error_code ec;
  it.output_bytes = fs::file_size(ctx.out_path, ec);

  // The checks re-parse the output. Both DOMs are freed first (the gold
  // labels are read from the input before it goes), so the checks stay
  // below the high-water mark of the pipeline itself, which later jobs'
  // peak_rss_mib readings would otherwise pick up.
  deduped.value() = sxnm::xml::Document();
  std::string quality_error;
  if (with_quality) {
    auto gold = sxnm::eval::GoldClusterSet(doc.value(),
                                           ctx.top->absolute_path_str);
    const auto* top = result->Find(ctx.top->name);
    if (!gold.ok()) {
      quality_error = "gold: " + gold.status().ToString();
    } else if (top == nullptr || gold->num_instances() != top->num_instances) {
      quality_error = "gold labels do not align with the top candidate";
    } else {
      it.quality = sxnm::eval::PairwiseMetrics(gold.value(), top->clusters);
    }
  }
  doc.value() = sxnm::xml::Document();
  it.error = CheckIteration(ctx, result.value(), stats);
  if (it.error.empty() && traced) it.error = ReconcileSpans(spans);
  if (it.error.empty()) it.error = quality_error;
  return it;
}

// ------------------------------------------------------------ arguments

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto found = flags.find(key);
    return found == flags.end() ? fallback : found->second;
  }
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      return std::nullopt;
    }
    args.flags[argv[i] + 2] = argv[i + 1];
  }
  return args;
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench info\n"
               "       e2e_bench setup --workload W --seed N "
               "--size full|smoke --dir D\n"
               "       e2e_bench run --workload W --dir D --seconds S "
               "--trace 0|1 --spans FILE\n");
  return 2;
}

// Timings from an unoptimized or instrumented build are not reported.
const char* UnfitBuildReason() {
#ifndef NDEBUG
  return "assertions are enabled (not an NDEBUG build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  if (std::strcmp(E2E_BUILD_TYPE, "Debug") == 0) return "Debug build";
  if (std::strstr(E2E_CXX_FLAGS, "-fsanitize") != nullptr) {
    return "sanitizer flags";
  }
  return nullptr;
}

// ---------------------------------------------------------------- setup

// Generations timed per setup; run.py reports their median as setup_s.
constexpr int kSetupRepeats = 3;

int Setup(const Workload& w, const Args& args) {
  const uint64_t seed = std::strtoull(args.Get("seed", "1").c_str(), nullptr, 10);
  const std::string size_name = args.Get("size", "full");
  if (size_name != "full" && size_name != "smoke") return Usage();
  const size_t size = size_name == "full" ? w.full_size : w.smoke_size;
  const fs::path dir = args.Get("dir", "");
  if (dir.empty()) return Usage();
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string data_path = (dir / "data.xml").string();
  const std::string config_path = (dir / "config.xml").string();

  std::vector<double> seconds;
  uint64_t first_digest = 0;
  for (int r = 0; r < kSetupRepeats; ++r) {
    double t0 = NowSeconds();
    auto doc = GenerateCorpus(w, size, seed);
    if (!doc.ok()) {
      std::fprintf(stderr, "generate: %s\n", doc.status().ToString().c_str());
      return 1;
    }
    if (!sxnm::xml::WriteDocumentToFile(doc.value(), data_path)) {
      std::fprintf(stderr, "cannot write %s\n", data_path.c_str());
      return 1;
    }
    auto config = WorkloadConfig(w);
    if (!config.ok()) {
      std::fprintf(stderr, "config: %s\n", config.status().ToString().c_str());
      return 1;
    }
    Status wrote = sxnm::persist::AtomicWriteFile(
        config_path, sxnm::core::ConfigToXmlString(config.value()));
    if (!wrote.ok()) {
      std::fprintf(stderr, "config: %s\n", wrote.ToString().c_str());
      return 1;
    }
    seconds.push_back(NowSeconds() - t0);
    // Generation is a pure function of the seed: every repeat must write
    // the same bytes.
    auto bytes = sxnm::persist::ReadFileToString(data_path);
    if (!bytes.ok()) {
      std::fprintf(stderr, "read back: %s\n", bytes.status().ToString().c_str());
      return 1;
    }
    uint64_t digest = Fnv1a(kFnvOffset, bytes->data(), bytes->size());
    if (r == 0) {
      first_digest = digest;
    } else if (digest != first_digest) {
      std::fprintf(stderr, "corpus generation is not deterministic\n");
      return 1;
    }
    ReleaseFreeHeap();
  }

  std::printf("{\"setup_s\": [");
  for (size_t i = 0; i < seconds.size(); ++i) {
    std::printf("%s%s", i ? ", " : "", JsonNumber(seconds[i]).c_str());
  }
  std::printf("], \"corpus_bytes\": %llu, \"corpus_digest\": \"%s\", "
              "\"size\": %zu}\n",
              static_cast<unsigned long long>(fs::file_size(data_path, ec)),
              Hex(first_digest).c_str(), size);
  return 0;
}

// ------------------------------------------------------------------ run

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string base;  // how the value was formed, e.g. a ratio's operands
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<Metric> LayerMetrics(const std::vector<Iteration>& traced,
                                 double untraced_e2e_s, double input_bytes) {
  // Per-layer times are medians over the traced jobs.
  auto median_of = [&](auto field) {
    std::vector<double> values;
    for (const Iteration& it : traced) values.push_back(field(it));
    return Median(values);
  };
  auto span_s = [&](const char* name) {
    return median_of([name](const Iteration& it) {
      const Span* s = FindSpan(it.spans, name);
      return s ? s->Seconds() : 0.0;
    });
  };
  // Counters are deterministic, so any traced iteration's snapshot will do.
  const sxnm::obs::MetricsSnapshot& m = traced.back().metrics;
  auto counter = [&](const char* name) {
    return static_cast<double>(m.CounterOr(name));
  };
  const double parse_s = span_s("parse");
  const double write_s = span_s("write");
  const double detect_s = span_s("detect");
  const double dedup_s = span_s("dedup");
  const double kg_s = span_s("kg");
  const double sw_s = span_s("sw");
  const double tc_s = span_s("tc");
  // Compared like e2e_s: fastest traced job against fastest untraced job.
  std::vector<double> traced_e2e;
  for (const Iteration& it : traced) traced_e2e.push_back(it.e2e_s);
  const double e2e_s = Min(traced_e2e);
  const double rows = counter("kg.rows");
  const double windowed = counter("sw.pairs_windowed");
  const double comparisons = counter("sw.comparisons");
  const double detect_unattributed = median_of([](const Iteration& it) {
    return SelfSeconds(it.spans, "detect");
  });
  const double run_unattributed = median_of([](const Iteration& it) {
    return SelfSeconds(it.spans, "run");
  });

  auto over = [](const char* num, double n, const char* den, double d) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s / %s = %.0f / %.0f", num, den, n, d);
    return std::string(buf);
  };
  std::vector<Metric> out = {
      {"xml.parse_s", parse_s, "s", ""},
      {"xml.parse_ns_per_byte", Ratio(parse_s * 1e9, input_bytes), "ns/B",
       over("parse ns", parse_s * 1e9, "input bytes", input_bytes)},
      {"xml.dom_rss_mb", median_of([](const Iteration& it) {
         return it.parse_rss_mib;
       }),
       "MiB", ""},
      {"xml.write_s", write_s, "s", ""},
      {"xml.output_bytes", static_cast<double>(traced.back().output_bytes), "B",
       ""},
      {"sxnm.kg_s", kg_s, "s", ""},
      {"kg.rows", rows, "count", ""},
      {"kg.subtree_pool_nodes", counter("kg.subtree_pool_nodes"), "count", ""},
      {"sxnm.kg_ns_per_row", Ratio(kg_s * 1e9, rows), "ns/row",
       over("kg ns", kg_s * 1e9, "kg.rows", rows)},
      {"sxnm.sw_s", sw_s, "s", ""},
      {"sw.pairs_windowed", windowed, "count", ""},
      {"sw.comparisons", comparisons, "count", ""},
      {"sxnm.sw_ns_per_windowed_pair", Ratio(sw_s * 1e9, windowed), "ns/pair",
       over("sw ns", sw_s * 1e9, "sw.pairs_windowed", windowed)},
  };
  const std::pair<const char*, const char*> mechanisms[] = {
      {"sw.dag_equal_ratio", "sw.dag_equal"},
      {"sw.verdict_cache_hit_ratio", "sw.verdict_cache_hits"},
      {"sw.batch_reject_ratio", "sw.batch_rejects"},
      {"sw.interned_equal_ratio", "sw.interned_equal"},
      {"sw.prepass_ratio", "sw.prepass_pairs"},
      {"text.myers_words_per_comparison", "text.myers_words"},
  };
  for (const auto& [name, source] : mechanisms) {
    double hits = counter(source);
    bool words = std::strcmp(source, "text.myers_words") == 0;
    out.push_back({name, Ratio(hits, comparisons), words ? "words/cmp" : "ratio",
                   over(source, hits, "sw.comparisons", comparisons)});
  }
  const double unique_dups = counter("sw.unique_duplicates");
  const double unique_cmps = counter("sw.unique_comparisons");
  out.push_back({"sw.accept_ratio", Ratio(unique_dups, unique_cmps), "ratio",
                 over("sw.unique_duplicates", unique_dups,
                      "sw.unique_comparisons", unique_cmps)});
  out.push_back({"sxnm.tc_s", tc_s, "s", ""});
  out.push_back({"tc.pairs", counter("tc.pairs"), "count", ""});
  out.push_back({"sxnm.detect_s", detect_s, "s", ""});
  out.push_back({"sxnm.detect_cpu_s",
                 median_of([](const Iteration& it) { return it.detect_cpu_s; }),
                 "s", ""});
  out.push_back({"sxnm.detect_unattributed_s", detect_unattributed, "s",
                 "detect - (kg + sw + tc)"});
  out.push_back({"sxnm.dedup_s", dedup_s, "s", ""});
  out.push_back({"dedup.elements_removed",
                 static_cast<double>(traced.back().elements_removed), "count",
                 ""});
  out.push_back({"trace.unattributed_s", run_unattributed, "s",
                 "e2e - (parse + detect + dedup + write)"});
  out.push_back({"trace.overhead_s", e2e_s - untraced_e2e_s, "s",
                 "fastest traced e2e " + JsonNumber(e2e_s) +
                     " - fastest untraced e2e " +
                     JsonNumber(untraced_e2e_s)});
  return out;
}

void PrintMetrics(const char* key, const std::vector<Metric>& metrics) {
  std::printf("\"%s\": {", key);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s%s: {\"value\": %s, \"unit\": %s", i ? ", " : "",
                JsonString(m.name).c_str(), JsonNumber(m.value).c_str(),
                JsonString(m.unit).c_str());
    if (!m.base.empty()) std::printf(", \"base\": %s", JsonString(m.base).c_str());
    std::printf("}");
  }
  std::printf("}");
}

int Run(const Workload& w, const Args& args) {
  if (const char* reason = UnfitBuildReason()) {
    std::fprintf(stderr, "refusing to report timings: %s (build type %s, "
                 "flags '%s')\n", reason, E2E_BUILD_TYPE, E2E_CXX_FLAGS);
    return 3;
  }
  const fs::path dir = args.Get("dir", "");
  const double budget_s = std::atof(args.Get("seconds", "10").c_str());
  const std::string trace = args.Get("trace", "0");
  const std::string spans_path = args.Get("spans", "");
  if (dir.empty() || spans_path.empty() || budget_s <= 0 ||
      (trace != "0" && trace != "1")) {
    return Usage();
  }
  const bool traced_mode = trace == "1";

  RunContext ctx;
  ctx.data_path = (dir / "data.xml").string();
  ctx.out_path = (dir / "dedup.xml").string();
  auto config = sxnm::core::ConfigFromXmlFile((dir / "config.xml").string());
  if (!config.ok()) {
    std::fprintf(stderr, "config: %s\n", config.status().ToString().c_str());
    return 1;
  }
  ctx.config = std::move(config).value();
  ctx.config.mutable_observability() = sxnm::core::ObservabilityConfig();
  ctx.traced_config = ctx.config;
  ctx.traced_config.mutable_observability().metrics = true;
  for (const auto& cand : ctx.config.candidates()) {
    if (cand.name == w.top_candidate) ctx.top = &cand;
  }
  if (ctx.top == nullptr) {
    std::fprintf(stderr, "config has no candidate %s\n", w.top_candidate);
    return 1;
  }
  std::error_code ec;
  const double input_bytes =
      static_cast<double>(fs::file_size(ctx.data_path, ec));
  if (ec) {
    std::fprintf(stderr, "no corpus at %s\n", ctx.data_path.c_str());
    return 1;
  }

  // Closed loop, one job at a time. In traced mode observability-off and
  // metrics-on jobs alternate so both see the same machine state.
  const size_t min_each = traced_mode ? 2 : 3;
  std::vector<Iteration> untraced, traced;
  std::vector<std::string> errors;
  std::map<std::string, uint64_t> digests;
  std::map<std::string, size_t> instances;
  std::optional<sxnm::eval::PairMetrics> quality;
  size_t attempted = 0, failed = 0;
  const double start = NowSeconds();
  double last_job_s = 0.0;  // wall time of the previous job, checks included
  for (size_t n = 0;; ++n) {
    const bool trace_this = traced_mode && n % 2 == 1;
    // Stop when the next job would overrun the budget.
    bool enough = NowSeconds() - start + last_job_s > budget_s &&
                  untraced.size() >= min_each &&
                  (!traced_mode || traced.size() >= min_each);
    if (enough) break;
    const double job_start = NowSeconds();
    Iteration it = RunIteration(ctx, trace_this, !quality.has_value());
    ReleaseFreeHeap();
    last_job_s = NowSeconds() - job_start;
    ++attempted;
    if (it.error.empty()) {
      if (digests.empty()) {
        digests = it.digests;
        instances = it.instances;
      } else if (it.digests != digests) {
        it.error = "duplicate-pair sets differ between iterations";
      }
    }
    if (!it.error.empty()) {
      ++failed;
      errors.push_back(it.error);
      // A failing job would fail again: stop after a few.
      if (failed >= 3) break;
      continue;
    }
    if (it.quality) quality = it.quality;
    if (trace_this) {
      it.run_id = std::string(w.name) + "-" + std::to_string(getpid()) + "-" +
                  std::to_string(n);
      traced.push_back(std::move(it));
    } else {
      untraced.push_back(std::move(it));
    }
  }
  if (traced_mode) WriteSpans(spans_path, traced);
  std::error_code rm_ec;
  fs::remove(ctx.out_path, rm_ec);

  // ---- report
  std::printf("{\"ok\": %s, \"attempted\": %zu, \"failed\": %zu, \"errors\": [",
              failed == 0 ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < errors.size(); ++i) {
    std::printf("%s%s", i ? ", " : "", JsonString(errors[i]).c_str());
  }
  std::printf("], \"provenance\": {\"nproc\": %zu, \"engine_threads\": %zu, "
              "\"build_type\": %s, \"compiler\": %s, \"cxx_flags\": %s, "
              "\"simd\": %s, \"input_bytes\": %.0f, \"instances\": {",
              Nproc(), ctx.config.num_threads(),
              JsonString(E2E_BUILD_TYPE).c_str(),
              JsonString(E2E_COMPILER).c_str(),
              JsonString(E2E_CXX_FLAGS).c_str(),
              JsonString(sxnm::util::simd::BackendName()).c_str(),
              input_bytes);
  size_t i = 0;
  for (const auto& [name, count] : instances) {
    std::printf("%s%s: %zu", i++ ? ", " : "", JsonString(name).c_str(), count);
  }
  std::printf("}}, \"pair_digests\": {");
  i = 0;
  for (const auto& [name, digest] : digests) {
    std::printf("%s%s: \"%s\"", i++ ? ", " : "", JsonString(name).c_str(),
                Hex(digest).c_str());
  }
  std::printf("}, \"samples\": {\"untraced\": %zu, \"traced\": %zu}",
              untraced.size(), traced.size());
  if (failed == 0 && !untraced.empty() && quality) {
    std::vector<double> e2e, cpu, peak_rss;
    for (const Iteration& it : untraced) {
      e2e.push_back(it.e2e_s);
      cpu.push_back(it.cpu_s);
      peak_rss.push_back(it.peak_rss_mib);
    }
    char quality_base[160];
    std::snprintf(quality_base, sizeof(quality_base),
                  "%s pairs vs _gold: P=%.4f R=%.4f, %zu gold / %zu detected",
                  ctx.top->name.c_str(), quality->precision, quality->recall,
                  quality->gold_pairs, quality->detected_pairs);
    std::printf(", ");
    auto fastest = [](const std::vector<double>& values) {
      return "fastest of " + std::to_string(values.size()) +
             " jobs; median " + JsonNumber(Median(values));
    };
    PrintMetrics("end_to_end",
                 {{"e2e_s", Min(e2e), "s", fastest(e2e)},
                  {"cpu_s", Min(cpu), "s", "user + sys, " + fastest(cpu)},
                  {"peak_rss_mb", *std::max_element(peak_rss.begin(),
                                                    peak_rss.end()),
                   "MiB", "high-water RSS, read after each job's write"},
                  {"f_measure", quality->f1, "ratio", quality_base}});
    if (traced_mode && !traced.empty()) {
      std::printf(", ");
      PrintMetrics("per_layer", LayerMetrics(traced, Min(e2e), input_bytes));
    }
  }
  std::printf("}\n");
  return failed == 0 ? 0 : 1;
}

// Engine threads of every workload on this host, for the provenance block.
int Info() {
  std::printf("{\"engine_threads\": {");
  size_t i = 0;
  for (const Workload& w : kWorkloads) {
    std::printf("%s\"%s\": %zu", i++ ? ", " : "", w.name, EngineThreads(w));
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) return Usage();
  if (args->command == "info") return Info();
  const Workload* w = FindWorkload(args->Get("workload", ""));
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n",
                 args->Get("workload", "").c_str());
    return Usage();
  }
  if (args->command == "setup") return Setup(*w, *args);
  if (args->command == "run") return Run(*w, *args);
  return Usage();
}
