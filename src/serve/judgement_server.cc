#include "serve/judgement_server.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fail_point.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace hisrect::serve {

namespace {

/// Power-of-two batch-size buckets (half-open at the upper boundary, like
/// every Histogram in this library): a flush of exactly `batch_size`
/// requests lands in the bucket whose lower boundary is that size.
const std::vector<double>& BatchSizeBoundaries() {
  static const std::vector<double>* boundaries = new std::vector<double>{
      1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
  return *boundaries;
}

obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("hisrect.serve.queue_depth");
  return gauge;
}

obs::Counter* DeadlineExceededCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "hisrect.serve.deadline_exceeded");
  return counter;
}

obs::Counter* CancelledCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("hisrect.serve.cancelled");
  return counter;
}

obs::Counter* SwapsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("hisrect.serve.swaps");
  return counter;
}

obs::Counter* SwapRollbacksCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "hisrect.serve.swap_rollbacks");
  return counter;
}

std::shared_ptr<const core::HisRectModel> Unowned(
    const core::HisRectModel* model) {
  return std::shared_ptr<const core::HisRectModel>(
      model, [](const core::HisRectModel*) {});
}

}  // namespace

bool Ticket::Cancel() {
  if (server_ == nullptr) return false;
  return server_->Cancel(id_);
}

JudgementServer::JudgementServer(const core::HisRectModel* model,
                                 ServeOptions options)
    : JudgementServer(Unowned(model), options) {}

JudgementServer::JudgementServer(
    std::unique_ptr<const core::HisRectModel> model, ServeOptions options)
    : JudgementServer(std::shared_ptr<const core::HisRectModel>(
                          std::move(model)),
                      options) {}

JudgementServer::JudgementServer(
    std::shared_ptr<const core::HisRectModel> model, ServeOptions options,
    uint64_t initial_version)
    : options_(options),
      model_(std::move(model)),
      model_version_(initial_version) {
  CHECK(model_ != nullptr);
  CHECK(model_->fitted()) << "JudgementServer needs a fitted model";
  CHECK_GE(options_.batch_size, 1u);
  CHECK_GE(options_.max_queue, 1u);
  CHECK_GE(options_.max_batch_queue, 1u);
  // Register the robustness series eagerly so a metrics dump from any
  // serving run carries them, even at zero (check_telemetry.py --serving).
  DeadlineExceededCounter();
  CancelledCounter();
  SwapsCounter();
  SwapRollbacksCounter();
  if (options_.stage_trace_capacity > 0) {
    traces_ = std::make_unique<StageTraceBuffer>(
        options_.stage_trace_capacity, options_.slow_trace_threshold_s,
        options_.slow_trace_capacity);
  }
  if (options_.stats_window_s > 0) {
    static const char* kWindowNames[kNumPriorities] = {
        "hisrect.serve.window_latency.interactive",
        "hisrect.serve.window_latency.batch"};
    for (size_t p = 0; p < kNumPriorities; ++p) {
      window_hist_[p] = std::make_unique<obs::WindowedHistogram>(
          kWindowNames[p], obs::TimeHistogramBoundaries(),
          options_.stats_window_s, /*num_slots=*/20, options_.window_clock);
    }
  }
  batcher_ = std::thread([this] { BatchLoop(); });
}

JudgementServer::~JudgementServer() { Shutdown(); }

size_t JudgementServer::PendingCountLocked() const {
  size_t count = 0;
  for (const std::deque<Pending>& queue : queues_) count += queue.size();
  return count;
}

util::Result<Ticket> JudgementServer::Submit(JudgementRequest request) {
  static obs::Counter* admitted = obs::MetricsRegistry::Global().GetCounter(
      "hisrect.serve.requests_admitted");
  static obs::Counter* rejected = obs::MetricsRegistry::Global().GetCounter(
      "hisrect.serve.requests_rejected");
  using Clock = std::chrono::steady_clock;
  const size_t klass = static_cast<size_t>(request.priority);
  Ticket ticket;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto reject = [&](util::Status status) {
      ++stats_.rejected;
      rejected->Increment();
      return status;
    };
    if (klass >= kNumPriorities) {
      return reject(util::Status::InvalidArgument(
          "priority " + std::to_string(klass) + " is not a Priority class"));
    }
    const Clock::time_point admitted_at = Clock::now();
    // admitted_at + timeout_us must stay representable: past the clock's
    // range the addition is signed overflow.
    const uint64_t max_timeout_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::time_point::max() - admitted_at)
            .count());
    if (request.timeout_us > max_timeout_us) {
      return reject(util::Status::InvalidArgument(
          "timeout_us " + std::to_string(request.timeout_us) +
          " puts the deadline past the clock's range"));
    }
    if (stopping_) {
      return reject(
          util::Status::FailedPrecondition("judgement server shut down"));
    }
    const size_t bound = request.priority == Priority::kInteractive
                             ? options_.max_queue
                             : options_.max_batch_queue;
    if (queues_[klass].size() >= bound) {
      return reject(util::Status::Unavailable(
          (request.priority == Priority::kInteractive
               ? std::string("interactive")
               : std::string("batch")) +
          " judgement queue full (" + std::to_string(bound) +
          " pending); retry later"));
    }
    Pending pending;
    pending.admitted_at = admitted_at;
    pending.deadline =
        request.timeout_us == 0
            ? Clock::time_point::max()
            : admitted_at + std::chrono::microseconds(request.timeout_us);
    pending.request = std::move(request);
    pending.id = next_id_++;
    ticket.future_ = pending.promise.get_future();
    ticket.server_ = this;
    ticket.id_ = pending.id;
    queues_[klass].push_back(std::move(pending));
    ++stats_.admitted;
    admitted->Increment();
    QueueDepthGauge()->Set(static_cast<int64_t>(PendingCountLocked()));
  }
  wake_.notify_one();
  return ticket;
}

bool JudgementServer::Cancel(uint64_t id) {
  Pending cancelled;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    bool found = false;
    for (std::deque<Pending>& queue : queues_) {
      for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (it->id != id) continue;
        cancelled = std::move(*it);
        queue.erase(it);
        found = true;
        break;
      }
      if (found) break;
    }
    if (!found) return false;  // Already batched or resolved: too late.
    ++stats_.cancelled;
    QueueDepthGauge()->Set(static_cast<int64_t>(PendingCountLocked()));
  }
  CancelledCounter()->Increment();
  const auto resolved_at = std::chrono::steady_clock::now();
  TraceUnscored(cancelled, StageTrace::Outcome::kCancelled, resolved_at,
                resolved_at);
  cancelled.promise.set_value(util::Status::Cancelled("cancelled by client"));
  return true;
}

void JudgementServer::SwapModel(
    std::shared_ptr<const core::HisRectModel> model, uint64_t version) {
  CHECK(model != nullptr);
  CHECK(model->fitted()) << "SwapModel needs a fitted model";
  std::shared_ptr<const core::HisRectModel> retired;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (model.get() == model_.get() && version == model_version_) return;
    retired = std::move(model_);
    model_ = std::move(model);
    model_version_ = version;
    ++stats_.swaps;
  }
  SwapsCounter()->Increment();
  // `retired` may hold the last reference; destroy it outside the lock so
  // model teardown never blocks Submit or the batcher.
}

void JudgementServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && !batcher_.joinable()) return;
    stopping_ = true;
  }
  wake_.notify_all();
  if (batcher_.joinable()) batcher_.join();
}

bool JudgementServer::accepting() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !stopping_;
}

size_t JudgementServer::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return PendingCountLocked();
}

std::array<size_t, kNumPriorities> JudgementServer::queue_depths() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::array<size_t, kNumPriorities> depths;
  for (size_t p = 0; p < kNumPriorities; ++p) depths[p] = queues_[p].size();
  return depths;
}

void JudgementServer::TraceUnscored(
    const Pending& pending, StageTrace::Outcome outcome,
    std::chrono::steady_clock::time_point dropped_at,
    std::chrono::steady_clock::time_point resolved_at) {
  if (traces_ == nullptr) return;
  StageTrace trace;
  trace.request_id = pending.id;
  trace.priority = static_cast<uint8_t>(pending.request.priority);
  trace.outcome = outcome;
  trace.uid_a = pending.request.a.uid;
  trace.uid_b = pending.request.b.uid;
  trace.queue_seconds =
      std::chrono::duration<double>(dropped_at - pending.admitted_at).count();
  trace.resolve_seconds =
      std::chrono::duration<double>(resolved_at - dropped_at).count();
  trace.total_seconds = trace.queue_seconds + trace.resolve_seconds;
  traces_->Record(trace);
}

uint64_t JudgementServer::model_version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return model_version_;
}

std::shared_ptr<const core::HisRectModel> JudgementServer::model() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return model_;
}

JudgementServer::Stats JudgementServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void JudgementServer::BatchLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return stopping_ || PendingCountLocked() > 0; });
    if (PendingCountLocked() == 0) {
      if (stopping_) return;  // Drained: every admitted request resolved.
      continue;
    }
    // A batch window opens at the first pending request: flush on size or
    // after max_wait_us, whichever comes first. Shutdown flushes
    // immediately — draining beats batching efficiency on the way out.
    const auto wait_deadline = std::chrono::steady_clock::now() +
                               std::chrono::microseconds(options_.max_wait_us);
    while (!stopping_ && PendingCountLocked() < options_.batch_size) {
      if (wake_.wait_until(lock, wait_deadline) == std::cv_status::timeout) {
        break;
      }
    }
    // Form the batch in strict priority order, expiring overdue requests as
    // they are popped. Expiry happens only here — a request that enters the
    // batch is always scored, so served scores stay bitwise-identical to
    // offline eval regardless of deadline pressure.
    const auto now = std::chrono::steady_clock::now();
    std::vector<Pending> batch;
    std::vector<Pending> expired;
    batch.reserve(std::min(PendingCountLocked(), options_.batch_size));
    while (batch.size() < options_.batch_size && PendingCountLocked() > 0) {
      std::deque<Pending>& queue =
          queues_[0].empty() ? queues_[1] : queues_[0];
      Pending pending = std::move(queue.front());
      queue.pop_front();
      if (pending.deadline <= now) {
        ++stats_.expired;
        expired.push_back(std::move(pending));
        continue;
      }
      batch.push_back(std::move(pending));
    }
    QueueDepthGauge()->Set(static_cast<int64_t>(PendingCountLocked()));
    // Snapshot the published model under the lock: a SwapModel racing this
    // flush either lands before (batch scores on the new version) or after
    // (batch finishes on the old one) — never mid-batch.
    std::shared_ptr<const core::HisRectModel> model = model_;
    const uint64_t version = model_version_;
    lock.unlock();
    for (Pending& pending : expired) {
      DeadlineExceededCounter()->Increment();
      TraceUnscored(pending, StageTrace::Outcome::kExpired, now,
                    std::chrono::steady_clock::now());
      pending.promise.set_value(util::Status::DeadlineExceeded(
          "deadline exceeded before batch formation"));
    }
    if (!batch.empty()) ProcessBatch(batch, *model, version, now);
    lock.lock();
  }
}

void JudgementServer::ProcessBatch(
    std::vector<Pending>& batch, const core::HisRectModel& model,
    uint64_t version, std::chrono::steady_clock::time_point formed_at) {
  HISRECT_TRACE_SPAN("serve.batch");
  static obs::Histogram* batch_sizes =
      obs::MetricsRegistry::Global().GetHistogram("hisrect.serve.batch_size",
                                                  BatchSizeBoundaries());
  static obs::Histogram* latencies =
      obs::MetricsRegistry::Global().GetHistogram(
          "hisrect.serve.request_latency_seconds",
          obs::TimeHistogramBoundaries());
  static obs::Counter* batches = obs::MetricsRegistry::Global().GetCounter(
      "hisrect.serve.batches");
  batch_sizes->Observe(static_cast<double>(batch.size()));
  batches->Increment();

  // serve.slow_batch: stall the batcher before scoring (payload:
  // milliseconds, floored at 1) — lets tests build deterministic queue
  // backlogs for the deadline/cancel paths.
  if (auto ms = util::FailPoint::Fire("serve.slow_batch")) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::max<int64_t>(*ms, 1)));
  }
  // serve.score_abort: the scoring pass dies. Every request in the batch
  // still resolves — with kInternal, never a hung future.
  if (util::FailPoint::ShouldFail("serve.score_abort")) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.aborted += batch.size();
      ++stats_.batches;
    }
    const auto aborted_at = std::chrono::steady_clock::now();
    for (Pending& pending : batch) {
      TraceUnscored(pending, StageTrace::Outcome::kAborted, formed_at,
                    aborted_at);
      pending.promise.set_value(
          util::Status::Internal("injected score abort (serve.score_abort)"));
    }
    return;
  }

  // The existing parallel inference path: per-request slots over the global
  // pool, encoder-cache handles (no deep copy on hits), ScorePairEncoded.
  // Identical arithmetic to the offline PairEvaluator path, so served
  // scores are bitwise-equal to a batch eval of the same pairs. With stage
  // tracing on, each request additionally stamps its encode/score
  // boundaries — clock reads only, nothing that feeds the arithmetic.
  using TimePoint = std::chrono::steady_clock::time_point;
  const bool tracing = traces_ != nullptr;
  std::vector<double> scores(batch.size());
  std::vector<TimePoint> encode_start, score_start, score_end;
  if (tracing) {
    encode_start.resize(batch.size());
    score_start.resize(batch.size());
    score_end.resize(batch.size());
  }
  util::ParallelFor(batch.size(), [&](size_t /*shard*/, size_t begin,
                                      size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (tracing) encode_start[i] = std::chrono::steady_clock::now();
      core::EncodedProfileHandle a = model.Encode(batch[i].request.a);
      core::EncodedProfileHandle b = model.Encode(batch[i].request.b);
      if (tracing) score_start[i] = std::chrono::steady_clock::now();
      scores[i] = model.ScorePairEncoded(*a, *b);
      if (tracing) score_end[i] = std::chrono::steady_clock::now();
    }
  });

  // Count completions BEFORE fulfilling any promise: a client that wakes on
  // its future must already see itself in stats().completed.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.completed += batch.size();
    ++stats_.batches;
  }
  const auto completed_at = std::chrono::steady_clock::now();
  for (size_t i = 0; i < batch.size(); ++i) {
    const double latency =
        std::chrono::duration<double>(completed_at - batch[i].admitted_at)
            .count();
    latencies->Observe(latency);
    const size_t klass = static_cast<size_t>(batch[i].request.priority);
    if (window_hist_[klass] != nullptr) window_hist_[klass]->Observe(latency);
    if (tracing) {
      // Stage boundaries telescope over shared timestamps, so the stage sum
      // reproduces `latency` exactly (bench_serving and
      // admin_server_test.cc both assert this accounting).
      const auto seconds = [](TimePoint from, TimePoint to) {
        return std::chrono::duration<double>(to - from).count();
      };
      StageTrace trace;
      trace.request_id = batch[i].id;
      trace.priority = static_cast<uint8_t>(klass);
      trace.outcome = StageTrace::Outcome::kScored;
      trace.model_version = version;
      trace.uid_a = batch[i].request.a.uid;
      trace.uid_b = batch[i].request.b.uid;
      trace.queue_seconds = seconds(batch[i].admitted_at, formed_at);
      trace.batch_seconds = seconds(formed_at, encode_start[i]);
      trace.encode_seconds = seconds(encode_start[i], score_start[i]);
      trace.score_seconds = seconds(score_start[i], score_end[i]);
      trace.resolve_seconds = seconds(score_end[i], completed_at);
      trace.total_seconds = latency;
      trace.score = scores[i];
      traces_->Record(trace);
      if (latency >= traces_->slow_threshold_seconds()) {
        SlowExemplar exemplar;
        exemplar.trace = trace;
        exemplar.delta_t = batch[i].request.delta_t;
        exemplar.timeout_us = batch[i].request.timeout_us;
        traces_->RecordSlow(std::move(exemplar));
      }
    }
    Response response;
    response.judgement = Judgement{scores[i], CoLocatedScore(scores[i])};
    response.model_version = version;
    response.latency_seconds = latency;
    batch[i].promise.set_value(std::move(response));
  }
}

}  // namespace hisrect::serve
