#include "perfbench/src/bench.h"

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <utility>

namespace perfbench {

int64_t HostNowNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

uint64_t InputRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---- Tracer -----------------------------------------------------------------

uint32_t Tracer::Open(const char* name) {
  Span span;
  span.name = name;
  uint32_t id = static_cast<uint32_t>(spans_.size()) + 1;
  if (!stack_.empty()) {
    span.parent = stack_.back();
    span.request =
        stack_.size() == 1 ? id : spans_[stack_.back() - 1].request;
  } else {
    span.request = id;
  }
  span.sim_start = clock_ == nullptr ? 0 : clock_->now();
  span.host_start = HostNowNs();
  spans_.push_back(span);
  stack_.push_back(id);
  return id;
}

void Tracer::Close(uint32_t id) {
  Span& span = spans_[id - 1];
  span.host_end = HostNowNs();
  span.sim_end = clock_ == nullptr ? 0 : clock_->now();
  // Spans close in LIFO order (RAII); tolerate a mismatch by unwinding to
  // the closed span.
  while (!stack_.empty()) {
    uint32_t top = stack_.back();
    stack_.pop_back();
    if (top == id) {
      break;
    }
  }
}

namespace {

// Length of the union of [start, end) intervals, clipped to [lo, hi).
int64_t CoveredLength(std::vector<std::pair<int64_t, int64_t>> intervals,
                      int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t run_start = 0;
  int64_t run_end = 0;
  bool open = false;
  for (auto [start, end] : intervals) {
    start = std::max(start, lo);
    end = std::min(end, hi);
    if (end <= start) {
      continue;
    }
    if (open && start <= run_end) {
      run_end = std::max(run_end, end);
      continue;
    }
    if (open) {
      covered += run_end - run_start;
    }
    run_start = start;
    run_end = end;
    open = true;
  }
  if (open) {
    covered += run_end - run_start;
  }
  return covered;
}

}  // namespace

SelfTimes ComputeSelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<uint32_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) {
      children[spans[i].parent - 1].push_back(static_cast<uint32_t>(i));
    }
  }
  SelfTimes out;
  out.host.resize(spans.size());
  out.sim.resize(spans.size());
  std::vector<std::pair<int64_t, int64_t>> host;
  std::vector<std::pair<int64_t, int64_t>> sim;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    host.clear();
    sim.clear();
    for (uint32_t c : children[i]) {
      host.emplace_back(spans[c].host_start, spans[c].host_end);
      sim.emplace_back(spans[c].sim_start, spans[c].sim_end);
    }
    out.host[i] = (s.host_end - s.host_start) -
                  CoveredLength(host, s.host_start, s.host_end);
    out.sim[i] =
        (s.sim_end - s.sim_start) - CoveredLength(sim, s.sim_start, s.sim_end);
  }
  return out;
}

std::string ChromeTraceJson(const std::vector<Span>& spans,
                            size_t max_spans) {
  // Spans are stored in open order, so a root's subtree is the contiguous
  // run of spans up to the next root, and a depth-first walk over children
  // in index order replays the B/E events in the order they happened.
  size_t limit = 0;
  for (size_t i = 0; i <= spans.size(); ++i) {
    if (i == spans.size() || spans[i].parent == 0) {
      if (i > max_spans) {
        break;
      }
      limit = i;
    }
  }
  std::vector<std::vector<uint32_t>> children(limit + 1);
  for (size_t i = 0; i < limit; ++i) {
    children[spans[i].parent].push_back(static_cast<uint32_t>(i + 1));
  }
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  char buf[320];
  auto emit = [&](const char* ph, uint32_t id, bool begin) {
    const Span& s = spans[id - 1];
    double ts = static_cast<double>(begin ? s.host_start : s.host_end) / 1e3;
    if (begin) {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,"
                    "\"tid\":1,\"args\":{\"id\":%u,\"parent\":%u,"
                    "\"request\":%u,\"sim_start_ns\":%lld,"
                    "\"sim_end_ns\":%lld}}",
                    first ? "" : ",\n", s.name, ph, ts, id, s.parent,
                    s.request, static_cast<long long>(s.sim_start),
                    static_cast<long long>(s.sim_end));
    } else {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,"
                    "\"tid\":1}",
                    first ? "" : ",\n", s.name, ph, ts);
    }
    first = false;
    out += buf;
  };
  // Iterative DFS: (span id, next child index).
  std::vector<std::pair<uint32_t, size_t>> stack;
  stack.emplace_back(0, 0);
  while (!stack.empty()) {
    auto& [id, next] = stack.back();
    if (next < children[id].size()) {
      uint32_t child = children[id][next++];
      emit("B", child, true);
      stack.emplace_back(child, 0);
      continue;
    }
    if (id != 0) {
      emit("E", id, false);
    }
    stack.pop_back();
  }
  out += "\n]}\n";
  return out;
}

// ---- TracingInterceptor -----------------------------------------------------

pass::Result<size_t> TracingInterceptor::InterceptRead(
    pass::os::Process& proc, pass::os::OpenFile& file, uint64_t offset,
    size_t len, std::string* out) {
  Scope span(tracer_, "core.intercept");
  return inner_->InterceptRead(proc, file, offset, len, out);
}

pass::Result<size_t> TracingInterceptor::InterceptWrite(
    pass::os::Process& proc, pass::os::OpenFile& file, uint64_t offset,
    std::string_view data) {
  Scope span(tracer_, "core.intercept");
  return inner_->InterceptWrite(proc, file, offset, data);
}

void TracingInterceptor::OnProcessStart(pass::os::Process& proc,
                                        const pass::os::Process* parent) {
  Scope span(tracer_, "core.intercept");
  inner_->OnProcessStart(proc, parent);
}

void TracingInterceptor::OnExec(pass::os::Process& proc,
                                const std::string& path,
                                const pass::os::VnodeRef& binary) {
  Scope span(tracer_, "core.intercept");
  inner_->OnExec(proc, path, binary);
}

void TracingInterceptor::OnExit(pass::os::Process& proc) {
  Scope span(tracer_, "core.intercept");
  inner_->OnExit(proc);
}

void TracingInterceptor::OnOpen(pass::os::Process& proc,
                                pass::os::OpenFile& file) {
  Scope span(tracer_, "core.intercept");
  inner_->OnOpen(proc, file);
}

void TracingInterceptor::OnClose(pass::os::Process& proc,
                                 pass::os::OpenFile& file) {
  Scope span(tracer_, "core.intercept");
  inner_->OnClose(proc, file);
}

void TracingInterceptor::OnMmap(pass::os::Process& proc,
                                pass::os::OpenFile& file, bool writable) {
  Scope span(tracer_, "core.intercept");
  inner_->OnMmap(proc, file, writable);
}

void TracingInterceptor::OnPipe(pass::os::Process& proc,
                                pass::os::OpenFile& read_end,
                                pass::os::OpenFile& write_end) {
  Scope span(tracer_, "core.intercept");
  inner_->OnPipe(proc, read_end, write_end);
}

void TracingInterceptor::OnRename(const std::string& from,
                                  const std::string& to) {
  Scope span(tracer_, "core.intercept");
  inner_->OnRename(from, to);
}

void TracingInterceptor::OnDropInode(pass::os::FileSystem* fs,
                                     const std::string& path,
                                     const pass::os::VnodeRef& vnode) {
  Scope span(tracer_, "core.intercept");
  inner_->OnDropInode(fs, path, vnode);
}

// ---- TracingSource ----------------------------------------------------------

std::vector<pass::pql::Node> TracingSource::RootSet(
    const std::string& name) const {
  Scope span(tracer_, "federated.root_set");
  std::vector<pass::pql::Node> out = inner_->RootSet(name);
  rows_ += out.size();
  return out;
}

std::vector<std::vector<pass::pql::Node>> TracingSource::FollowMany(
    const std::vector<pass::pql::Node>& nodes, const std::string& link,
    bool inverse) const {
  Scope span(tracer_, "federated.follow");
  auto out = inner_->FollowMany(nodes, link, inverse);
  for (const auto& edges : out) {
    rows_ += edges.size();
  }
  return out;
}

std::vector<pass::pql::ValueSet> TracingSource::AttributeMany(
    const std::vector<pass::pql::Node>& nodes, const std::string& attr) const {
  Scope span(tracer_, "federated.attribute");
  auto out = inner_->AttributeMany(nodes, attr);
  for (const auto& values : out) {
    rows_ += values.size();
  }
  return out;
}

bool TracingSource::IsLink(const std::string& name) const {
  return inner_->IsLink(name);
}

std::string TracingSource::NodeLabel(const pass::pql::Node& node) const {
  Scope span(tracer_, "federated.label");
  return inner_->NodeLabel(node);
}

// ---- Percentiles ------------------------------------------------------------

int TailPercentile(size_t n) {
  int best = 50;
  for (int p = 50; p <= 99; ++p) {
    // Nearest rank: the value at 1-based rank ceil(p/100 * n).
    size_t rank = static_cast<size_t>(
        std::ceil(static_cast<double>(p) / 100.0 * static_cast<double>(n)));
    if (n >= rank + 10) {
      best = p;
    }
  }
  return best;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

Tail Summarize(const std::vector<double>& values) {
  Tail t;
  t.n = values.size();
  t.tail_pct = TailPercentile(values.size());
  t.p50 = Percentile(values, 50);
  t.tail = Percentile(values, t.tail_pct);
  return t;
}

// ---- Memory -----------------------------------------------------------------

void RssWindow::Resume() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  ok_ = ok_ && clear.good();
}

void RssWindow::Pause() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      peak_kb_ = std::max<int64_t>(peak_kb_, std::atoll(line.c_str() + 6));
      return;
    }
  }
  ok_ = false;
}

// ---- Misc -------------------------------------------------------------------

namespace {
Corruption g_corruption;
}  // namespace

void SetCorruption(const Corruption& corruption) { g_corruption = corruption; }
const Corruption& corruption() { return g_corruption; }

std::vector<std::string> RowKeys(
    const std::vector<std::vector<pass::pql::Value>>& rows) {
  std::set<std::string> keys;
  for (const auto& row : rows) {
    std::string line;
    for (const pass::pql::Value& value : row) {
      line += value.ToString();
      line += '|';
    }
    keys.insert(std::move(line));
  }
  return std::vector<std::string>(keys.begin(), keys.end());
}

}  // namespace perfbench
