// In-memory host-time spans recorded from the benchmark's own files around
// calls into the library's public functions. A span has a name, start and
// end (steady_clock seconds since the recorder was created), the index of
// the enclosing span (-1 at the root) and a run id shared by every span
// under one root. Spans are kept in memory and written out once at exit.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int run = 0;
};

class SpanRecorder {
 public:
  /// A disabled recorder keeps nothing; Span still measures its interval.
  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  int open(std::string name) {
    const double t = now();
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    if (parent < 0) ++runs_;
    spans_.push_back({std::move(name), t, t, parent, runs_});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id, double t) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = t;
    stack_.pop_back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Writes {"spans": [...]} to `path`; returns false when it cannot.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                   "\"end\": %.9f, \"parent\": %d, \"run\": %d}%s\n",
                   i, s.name.c_str(), s.start, s.end, s.parent, s.run,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  int runs_ = 0;
};

/// Scoped span: opens on construction, closes on destruction. seconds()
/// gives the elapsed host time whether or not the recorder keeps spans.
class Span {
 public:
  Span(SpanRecorder& rec, std::string name)
      : rec_(rec), start_(rec.now()), id_(rec.open(std::move(name))) {}
  ~Span() { rec_.close(id_, rec_.now()); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double seconds() const { return rec_.now() - start_; }

 private:
  SpanRecorder& rec_;
  double start_;
  int id_;
};

}  // namespace perfbench
