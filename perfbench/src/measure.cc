#include "src/measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuMicros() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * int64_t{1000000} +
         ru.ru_utime.tv_usec + ru.ru_stime.tv_usec;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  rank = std::min(std::max<std::size_t>(rank, 1), samples.size());
  return samples[rank - 1];
}

int Tracer::Begin(const char* name, uint64_t txn, int parent) {
  Span span;
  span.name = name;
  span.txn = txn;
  span.parent = parent;
  span.start_ns = NowNanos();
  span.end_ns = span.start_ns;
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] += static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
    if (spans[i].parent >= 0) {
      self[static_cast<std::size_t>(spans[i].parent)] -=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
    }
  }
  return self;
}

std::map<std::string, std::map<uint64_t, double>> SelfTimeByTxn(
    const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimesUs(spans);
  std::map<std::string, std::map<uint64_t, double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name][spans[i].txn] += self[i];
  }
  return out;
}

EndToEnd Fold(const std::vector<RoundSamples>& rounds) {
  EndToEnd out;
  if (rounds.empty()) return out;
  std::vector<double> setup;
  std::vector<double> rss;
  for (const RoundSamples& r : rounds) {
    setup.push_back(r.setup_s);
    rss.push_back(r.peak_rss_mb);
    out.recover_s += r.recover_s;
  }
  out.setup_s = Median(setup);
  out.peak_rss_mb = Median(rss);
  out.recover_s /= static_cast<double>(rounds.size());

  if (!rounds.front().windows.empty()) {
    std::vector<const Window*> windows;
    for (const RoundSamples& r : rounds) {
      for (const Window& w : r.windows) windows.push_back(&w);
    }
    std::stable_sort(windows.begin(), windows.end(),
                     [](const Window* a, const Window* b) {
                       return a->p50_us < b->p50_us;
                     });
    windows.resize(std::max<std::size_t>(1, windows.size() / 10));
    std::vector<double> latency_us;
    for (const Window* w : windows) {
      latency_us.insert(latency_us.end(), w->latency_us.begin(),
                        w->latency_us.end());
      out.throughput_tps += w->tps;
      out.cpu_us_per_txn += w->cpu_us_per_txn;
    }
    out.txn_p50_us = Percentile(latency_us, 0.5);
    out.txn_p90_us = Percentile(latency_us, 0.9);
    out.throughput_tps /= static_cast<double>(windows.size());
    out.cpu_us_per_txn /= static_cast<double>(windows.size());
    return out;
  }

  std::vector<double> best_us = rounds.front().txn_us;
  std::vector<double> best_cpu = rounds.front().txn_cpu_us;
  for (const RoundSamples& r : rounds) {
    for (std::size_t i = 0; i < best_us.size() && i < r.txn_us.size(); ++i) {
      best_us[i] = std::min(best_us[i], r.txn_us[i]);
    }
    for (std::size_t i = 0; i < best_cpu.size() && i < r.txn_cpu_us.size();
         ++i) {
      best_cpu[i] = std::min(best_cpu[i], r.txn_cpu_us[i]);
    }
  }
  out.txn_p50_us = Percentile(best_us, 0.5);
  out.txn_p90_us = Percentile(best_us, 0.9);
  double busy_us = 0;
  for (double us : best_us) busy_us += us;
  out.throughput_tps =
      busy_us > 0 ? static_cast<double>(rounds.front().commits) / busy_us * 1e6
                  : 0;
  double cpu_us = 0;
  for (double us : best_cpu) cpu_us += us;
  out.cpu_us_per_txn =
      best_cpu.empty() ? 0 : cpu_us / static_cast<double>(best_cpu.size());
  return out;
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"txn\":" << s.txn << "}\n";
  }
}

void JsonLine::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + JsonEscape(key) + "\": ";
}

JsonLine& JsonLine::Num(const std::string& key, double value) {
  Key(key);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  body_ += buf;
  return *this;
}

JsonLine& JsonLine::Int(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonLine& JsonLine::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonLine& JsonLine::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += "\"" + JsonEscape(value) + "\"";
  return *this;
}

}  // namespace perfbench
