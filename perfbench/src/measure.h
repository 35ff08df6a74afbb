// Clocks, percentiles and the span tracer of the benchmark.
//
// Spans are recorded by the benchmark's own code around its calls into
// the system's modules; nothing inside the system is instrumented. A span
// has a name, a start and an end, the span that caused it, and the
// transaction it belongs to. Spans stay in memory until the run ends.

#ifndef PERFBENCH_SRC_MEASURE_H_
#define PERFBENCH_SRC_MEASURE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds.
int64_t NowNanos();

/// User + system CPU time of this process, in microseconds.
int64_t ProcessCpuMicros();

/// Nearest-rank percentile: the value at 1-based rank ceil(p * n) of the
/// sorted samples, p in (0, 1]. 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// Median by the same rule as Percentile(samples, 0.5).
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

struct Span {
  const char* name = "";  // a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;        // index into the same tracer's spans; -1 = root
  uint64_t txn = 0;
};

/// Span recorder for one thread. A null Tracer* disables tracing at the
/// call sites (ScopedSpan does nothing), so the traced and the untraced
/// passes run the same code.
class Tracer {
 public:
  int Begin(const char* name, uint64_t txn, int parent);
  void End(int id) { spans_[static_cast<std::size_t>(id)].end_ns = NowNanos(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t txn, int parent = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, txn, parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Self time of every span, in microseconds: its duration minus the
/// durations of its children. A tracer belongs to one thread and spans
/// nest, so a span's children never overlap.
std::vector<double> SelfTimesUs(const std::vector<Span>& spans);

/// Per transaction, the summed self time of the spans with each name:
/// result[name][txn] in microseconds.
std::map<std::string, std::map<uint64_t, double>> SelfTimeByTxn(
    const std::vector<Span>& spans);

/// served_point: one window of consecutive measured requests.
struct Window {
  std::vector<double> latency_us;  // every connection's requests
  double p50_us = 0;               // of latency_us
  double tps = 0;             // commits per second, all connections
  double cpu_us_per_txn = 0;  // server process CPU / requests completed
};

/// What one count-bound round measured, in the shape Fold needs.
struct RoundSamples {
  /// bulk_enforce, parallel_enforce: latency and process CPU of every
  /// measured transaction in submission order. Every round of a run
  /// submits the same transactions against the same initial state.
  std::vector<double> txn_us;
  std::vector<double> txn_cpu_us;
  int64_t commits = 0;  // among the measured transactions
  /// served_point: the round's windows.
  std::vector<Window> windows;
  double setup_s = 0;
  double peak_rss_mb = 0;
  double recover_s = 0;
};

/// One value per end-to-end metric.
struct EndToEnd {
  double txn_p50_us = 0;
  double txn_p90_us = 0;
  double throughput_tps = 0;
  double cpu_us_per_txn = 0;
  double setup_s = 0;
  double peak_rss_mb = 0;
  double recover_s = 0;
};

/// Folds the rounds of a run (a fixed number of them) into one value per
/// metric. Other load on a shared host (CPU and the disk under the WAL)
/// only ever slows work down, and comes and goes within seconds, so the
/// timings keep the least-disturbed repetitions of the same work:
///   - with windows (served_point), the quietest tenth of all the rounds'
///     windows by their p50: p50 and p90 over those windows' requests
///     pooled, and their mean throughput and CPU per request;
///   - with transactions, each transaction's fastest round, then p50 and
///     p90 over the transactions, commits / their summed latency, and
///     their mean CPU.
/// setup_s and peak_rss_mb, one sample per round, are the medians of the
/// rounds. recover_s is their mean: a round's single recovery lasts 0.1 to
/// 0.7 s, short enough to fall wholly into a slow or a fast stretch of a
/// shared host, and the rounds' values split into two clusters whose
/// boundary the median can land on.
EndToEnd Fold(const std::vector<RoundSamples>& rounds);

/// Writes spans as JSON lines (name, start, end, parent, txn).
void WriteSpans(const std::vector<Span>& spans, const std::string& path);

/// A flat JSON object, printed on one line in insertion order.
class JsonLine {
 public:
  JsonLine& Num(const std::string& key, double value);
  JsonLine& Int(const std::string& key, int64_t value);
  JsonLine& Bool(const std::string& key, bool value);
  JsonLine& Str(const std::string& key, const std::string& value);
  std::string ToString() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_MEASURE_H_
