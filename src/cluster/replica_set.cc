#include "cluster/replica_set.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "util/failpoint.h"
#include "util/logging.h"

namespace lake::cluster {

namespace {

/// Canonical signature of a BatchOutcome: per-op accept/reject decisions
/// and assigned ids. Replicas in identical states decide identically, so
/// any signature difference is divergence (and vice versa: a replica that
/// silently diverged earlier betrays itself by deciding differently).
std::string OutcomeSignature(const ingest::LiveEngine::BatchOutcome& o) {
  std::ostringstream sig;
  for (const Result<TableId>& add : o.adds) {
    if (add.ok()) {
      sig << '+' << add.value() << ';';
    } else {
      sig << '!' << static_cast<int>(add.status().code()) << ';';
    }
  }
  sig << '|';
  for (const Status& remove : o.removes) {
    sig << (remove.ok() ? 0 : static_cast<int>(remove.code())) << ';';
  }
  return std::move(sig).str();
}

}  // namespace

std::string ReplicaSet::ApplyFailpointName(uint32_t shard, size_t replica) {
  return "cluster.apply." + std::to_string(shard) + "." +
         std::to_string(replica);
}

ReplicaSet::ReplicaSet(uint32_t shard_id,
                       std::shared_ptr<const DataLakeCatalog> catalog,
                       Options options)
    : shard_id_(shard_id),
      write_quorum_option_(options.write_quorum),
      tail_options_(options.tail) {
  const size_t r = std::max<size_t>(1, options.num_replicas);
  // One shared immutable base engine: replicas are content-identical by
  // construction, so indexing the shard once is enough. Each replica keeps
  // its own delta/WAL state on top.
  auto base = std::make_shared<const DiscoveryEngine>(
      catalog.get(), options.engine.kb, options.engine.base_options);
  replicas_.reserve(r);
  for (size_t i = 0; i < r; ++i) {
    ingest::LiveEngine::Options engine_options = options.engine;
    engine_options.store = i < options.replica_stores.size()
                               ? options.replica_stores[i]
                               : nullptr;
    engine_options.enable_wal =
        engine_options.enable_wal && engine_options.store != nullptr;
    replicas_.push_back(std::make_unique<ingest::LiveEngine>(
        catalog, base, std::move(engine_options)));
  }
  InitReplicaState(options);
}

ReplicaSet::ReplicaSet(
    uint32_t shard_id,
    std::vector<std::unique_ptr<ingest::LiveEngine>> replicas,
    Options options)
    : shard_id_(shard_id),
      write_quorum_option_(options.write_quorum),
      tail_options_(options.tail),
      replicas_(std::move(replicas)) {
  InitReplicaState(options);
}

void ReplicaSet::InitReplicaState(const Options& options) {
  // The latency breaker never sees RecordFailure: only the verdict trips
  // it, and its half-open period admits one probe at a time.
  serve::CircuitBreaker::Options eject;
  eject.open_base =
      std::max(tail_options_.eject_base, std::chrono::milliseconds(1));
  eject.open_max = tail_options_.eject_max;
  eject.half_open_max_probes = 1;
  eject.close_after_successes = tail_options_.eject_probes;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    breakers_.push_back(
        std::make_unique<serve::CircuitBreaker>(options.breaker));
    alive_.push_back(std::make_unique<std::atomic<bool>>(true));
    stale_.push_back(std::make_unique<std::atomic<bool>>(false));
    latency_.push_back(
        std::make_unique<WindowedQuantile>(tail_options_.latency_window));
    ejectors_.push_back(std::make_unique<serve::CircuitBreaker>(eject));
  }
  serve::MetricsRegistry* metrics = options.metrics;
  if (metrics == nullptr) return;
  outcome_mismatch_ = metrics->GetCounter("cluster.apply.outcome_mismatch");
  replica_failures_ =
      metrics->GetCounterFamily("cluster.apply.replica_failures", "shard")
          ->WithLabel(static_cast<uint64_t>(shard_id_));
  quorum_failures_ =
      metrics->GetCounterFamily("cluster.apply.quorum_failures", "shard")
          ->WithLabel(static_cast<uint64_t>(shard_id_));
  stale_gauge_ = metrics->GetGaugeFamily("serve.replica.stale", "shard")
                     ->WithLabel(static_cast<uint64_t>(shard_id_));
  eject_counter_ = metrics->GetCounterFamily("cluster.tail.ejections", "shard")
                       ->WithLabel(static_cast<uint64_t>(shard_id_));
  ejected_gauge_ =
      metrics->GetGaugeFamily("cluster.replica.ejected", "shard")
          ->WithLabel(static_cast<uint64_t>(shard_id_));
}

void ReplicaSet::ExportStaleGauge() {
  if (stale_gauge_ != nullptr) stale_gauge_->Set(num_stale());
}

void ReplicaSet::ExportEjectedGauge() {
  if (ejected_gauge_ != nullptr) ejected_gauge_->Set(num_ejected());
}

bool ReplicaSet::Pick(Clock::time_point now, size_t exclude, Route* route) {
  using Permit = serve::CircuitBreaker::Permit;
  const size_t r = replicas_.size();
  const size_t start = next_replica_.fetch_add(1, std::memory_order_relaxed);
  const bool ejecting = tail_options_.eject_multiple > 0;
  // Pass 1 asks each candidate's latency breaker, so slow-ejected replicas
  // are skipped; pass 2 is the availability floor: when only ejected
  // replicas remain, a slow answer beats no answer.
  for (int pass = 0; pass < (ejecting ? 2 : 1); ++pass) {
    for (size_t i = 0; i < r; ++i) {
      const size_t candidate = (start + i) % r;
      if (candidate == exclude || !alive(candidate) || stale(candidate)) {
        continue;
      }
      Permit eject = Permit::kAllowed;
      if (pass == 0 && ejecting) {
        std::lock_guard<std::mutex> lock(tail_mu_);
        serve::CircuitBreaker& ejector = *ejectors_[candidate];
        const bool was_open =
            ejector.state(now) == serve::CircuitBreaker::State::kOpen;
        eject = ejector.Allow(now);
        if (eject == Permit::kDenied) continue;
        // The ejection is served and this probe starts the probe period:
        // clear the window so the re-admit verdict judges only samples
        // from here on, not the old slowness or last-resort picks.
        if (was_open) latency_[candidate]->Reset();
      }
      const Permit permit = breakers_[candidate]->Allow(now);
      if (permit == Permit::kDenied) {
        if (eject == Permit::kProbe) ejectors_[candidate]->RecordNeutral(now);
        continue;
      }
      route->replica = candidate;
      route->engine = replicas_[candidate].get();
      route->permit = permit;
      return true;
    }
  }
  return false;
}

bool ReplicaSet::EjectIfSlowLocked(size_t replica, Clock::time_point now) {
  // The floor: only admitted, live, non-stale peers with enough signal
  // count, so with no qualified peer this replica may be the last healthy
  // one and is never ejected on a solo verdict.
  std::vector<double> peer_quantiles;
  for (size_t j = 0; j < replicas_.size(); ++j) {
    if (j == replica || !alive(j) || stale(j) ||
        ejectors_[j]->state(now) != serve::CircuitBreaker::State::kClosed ||
        latency_[j]->count(now) < tail_options_.eject_min_samples) {
      continue;
    }
    peer_quantiles.push_back(
        latency_[j]->Quantile(tail_options_.eject_quantile, now));
  }
  if (peer_quantiles.empty()) return false;
  std::sort(peer_quantiles.begin(), peer_quantiles.end());
  const double median = peer_quantiles[peer_quantiles.size() / 2];
  const double own =
      latency_[replica]->Quantile(tail_options_.eject_quantile, now);
  if (median <= 0 || own <= tail_options_.eject_multiple * median) {
    return false;
  }
  ejectors_[replica]->Trip(now);
  if (eject_counter_ != nullptr) eject_counter_->Add();
  LAKE_LOG(Warning) << "shard " << shard_id_ << " replica " << replica
                    << ": slow-outlier ejected (p"
                    << static_cast<int>(tail_options_.eject_quantile * 100)
                    << " " << own << "us vs peer median " << median << "us)";
  return true;
}

void ReplicaSet::RecordOutcome(size_t replica, bool success,
                               Clock::time_point now, double latency_us) {
  if (success) {
    breakers_[replica]->RecordSuccess(now);
  } else {
    breakers_[replica]->RecordFailure(now);
  }
  if (latency_us >= 0) latency_[replica]->Record(latency_us, now);
  if (tail_options_.eject_multiple <= 0) return;
  std::lock_guard<std::mutex> lock(tail_mu_);
  serve::CircuitBreaker& ejector = *ejectors_[replica];
  switch (ejector.state(now)) {
    case serve::CircuitBreaker::State::kClosed:
      if (latency_[replica]->count(now) >= tail_options_.eject_min_samples &&
          EjectIfSlowLocked(replica, now)) {
        ExportEjectedGauge();
      }
      return;
    case serve::CircuitBreaker::State::kOpen:
      return;  // straggler from before the ejection, or a last-resort pick
    case serve::CircuitBreaker::State::kHalfOpen:
      // The failure breaker judges failures: a failed probe only frees the
      // probe slot.
      if (!success) {
        ejector.RecordNeutral(now);
        return;
      }
      if (ejector.probe_successes() + 1 < tail_options_.eject_probes) {
        ejector.RecordSuccess(now);
        return;
      }
      // Verdict over probe-period samples only: still an outlier ->
      // re-eject with a doubled backoff; recovered (or not provably slow)
      // -> this success closes the breaker and re-admits the replica.
      if (!EjectIfSlowLocked(replica, now)) ejector.RecordSuccess(now);
      ExportEjectedGauge();
      return;
  }
}

void ReplicaSet::RecordNeutral(size_t replica, Clock::time_point now) {
  breakers_[replica]->RecordNeutral(now);
  if (tail_options_.eject_multiple > 0) ejectors_[replica]->RecordNeutral(now);
}

double ReplicaSet::LatencyQuantile(size_t replica, double q,
                                   Clock::time_point now) const {
  return latency_[replica]->Quantile(q, now);
}

uint64_t ReplicaSet::LatencySamples(size_t replica,
                                    Clock::time_point now) const {
  return latency_[replica]->count(now);
}

bool ReplicaSet::slow_ejected(size_t replica) const {
  return ejectors_[replica]->state(Clock::now()) !=
         serve::CircuitBreaker::State::kClosed;
}

uint64_t ReplicaSet::slow_ejections(size_t replica) const {
  return ejectors_[replica]->trips();
}

size_t ReplicaSet::num_ejected() const {
  size_t n = 0;
  for (size_t i = 0; i < ejectors_.size(); ++i) {
    if (slow_ejected(i)) ++n;
  }
  return n;
}

size_t ReplicaSet::num_alive() const {
  size_t n = 0;
  for (const auto& a : alive_) {
    if (a->load()) ++n;
  }
  return n;
}

void ReplicaSet::MarkStale(size_t replica) {
  stale_[replica]->store(true);
  ExportStaleGauge();
}

void ReplicaSet::ClearStale(size_t replica) {
  stale_[replica]->store(false);
  ExportStaleGauge();
}

size_t ReplicaSet::num_stale() const {
  size_t n = 0;
  for (const auto& s : stale_) {
    if (s->load()) ++n;
  }
  return n;
}

size_t ReplicaSet::write_quorum() const {
  const size_t r = replicas_.size();
  const size_t w =
      write_quorum_option_ == 0 ? r / 2 + 1 : write_quorum_option_;
  return std::min(std::max<size_t>(1, w), r);
}

ingest::LiveEngine::BatchOutcome ReplicaSet::ApplyBatch(
    ingest::LiveEngine::Batch batch) {
  const size_t r = replicas_.size();

  struct Attempt {
    bool applied = false;  // engine accepted and published the batch
    bool voter = false;    // was non-stale going in, counts toward quorum
    ingest::LiveEngine::BatchOutcome outcome;
    uint64_t digest = 0;  // post-apply content digest
  };
  std::vector<Attempt> attempts(r);

  for (size_t i = 0; i < r; ++i) {
    Attempt& attempt = attempts[i];
    attempt.voter = !stale(i);
    // Injected per-replica apply failure: the replica misses the batch
    // entirely, as if its apply thread died mid-write.
    if (FailpointHit(ApplyFailpointName(shard_id_, i))) {
      if (attempt.voter && replica_failures_ != nullptr) {
        replica_failures_->Add();
      }
      continue;
    }
    ingest::LiveEngine::Batch copy;
    if (i + 1 < r) {
      copy.adds = batch.adds;
      copy.removes = batch.removes;
    } else {
      copy = std::move(batch);  // last replica consumes the original
    }
    attempt.outcome = replicas_[i]->ApplyBatch(std::move(copy));
    // published == false means the engine rejected the whole batch
    // atomically (WAL fail-stop, injected publish fault) — a real apply
    // failure, not a per-op rejection.
    attempt.applied = attempt.outcome.published;
    if (attempt.applied) {
      attempt.digest = replicas_[i]->content_digest();
    } else if (attempt.voter && replica_failures_ != nullptr) {
      replica_failures_->Add();
    }
  }

  // Group the voters that applied by (outcome signature, digest); the
  // winning group is the largest, ties broken toward the group containing
  // the lowest replica index (so a 1-vs-1 split trusts replica 0, and the
  // mismatch still fires in R=2 configs).
  std::map<std::string, std::vector<size_t>> groups;
  for (size_t i = 0; i < r; ++i) {
    if (!attempts[i].voter || !attempts[i].applied) continue;
    groups[OutcomeSignature(attempts[i].outcome) + '#' +
           std::to_string(attempts[i].digest)]
        .push_back(i);
  }
  std::vector<size_t> winners;
  for (const auto& [key, members] : groups) {
    if (members.size() > winners.size() ||
        (members.size() == winners.size() && !winners.empty() &&
         members.front() < winners.front())) {
      winners = members;
    }
  }
  if (groups.size() > 1) {
    size_t disagreeing = 0;
    for (const auto& [key, members] : groups) {
      if (members != winners) disagreeing += members.size();
    }
    if (outcome_mismatch_ != nullptr) outcome_mismatch_->Add(disagreeing);
    LAKE_LOG(Warning) << "shard " << shard_id_ << ": " << disagreeing
                      << " replica(s) returned a divergent batch outcome; "
                         "marking stale";
  }

  // All-replica failure: no voter applied, so every replica still agrees
  // on the OLD state — fail-stop the write, mark nobody stale.
  if (winners.empty()) {
    if (quorum_failures_ != nullptr) quorum_failures_->Add();
    const Status failed = Status::Unavailable(
        "shard " + std::to_string(shard_id_) +
        ": batch applied on no replica (write path fail-stopped)");
    ingest::LiveEngine::BatchOutcome outcome;
    // `batch` may have been consumed by the last replica's attempt; size
    // the statuses from whichever attempt recorded them, else the batch.
    const Attempt& shape = attempts[r - 1];
    const size_t num_adds =
        shape.outcome.adds.empty() ? batch.adds.size()
                                   : shape.outcome.adds.size();
    const size_t num_removes = shape.outcome.removes.empty()
                                   ? batch.removes.size()
                                   : shape.outcome.removes.size();
    outcome.adds.assign(num_adds, failed);
    outcome.removes.assign(num_removes, failed);
    return outcome;
  }

  // Everyone who voted but is not in the winning group — failed applies
  // and divergent outcomes alike — is now stale: excluded from reads until
  // the scrubber repairs it back to the winners' digest.
  std::vector<bool> winner(r, false);
  for (size_t i : winners) winner[i] = true;
  for (size_t i = 0; i < r; ++i) {
    if (attempts[i].voter && !winner[i]) MarkStale(i);
  }

  const size_t w = write_quorum();
  if (winners.size() < w) {
    // Too few agreeing replicas to ack. The winners keep the unacked
    // write (they are the largest agreeing group, so anti-entropy will
    // converge the others TO them — an unacknowledged write may surface
    // later, it is never silently half-applied across the quorum).
    if (quorum_failures_ != nullptr) quorum_failures_->Add();
    const Status failed = Status::Unavailable(
        "shard " + std::to_string(shard_id_) + ": write quorum not met (" +
        std::to_string(winners.size()) + " of " + std::to_string(r) +
        " agree, need " + std::to_string(w) + ")");
    ingest::LiveEngine::BatchOutcome outcome;
    const ingest::LiveEngine::BatchOutcome& won =
        attempts[winners.front()].outcome;
    outcome.adds.assign(won.adds.size(), failed);
    outcome.removes.assign(won.removes.size(), failed);
    return outcome;
  }

  return std::move(attempts[winners.front()].outcome);
}

std::vector<Table> ReplicaSet::VisibleTables() const {
  // Prefer a non-stale replica as the authoritative copy; all-stale (not
  // reachable through the public write path) falls back to replica 0.
  size_t source = 0;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (!stale(i)) {
      source = i;
      break;
    }
  }
  std::shared_ptr<const ingest::Generation> gen =
      replicas_[source]->Acquire();
  std::vector<Table> out;
  out.reserve(gen->visible_table_count());
  const DataLakeCatalog& base = gen->base_catalog();
  for (TableId id : base.AllTables()) {
    if (gen->delta().tombstones.count(id)) continue;
    out.push_back(base.table(id));
  }
  if (gen->delta().catalog != nullptr) {
    const DataLakeCatalog& delta = *gen->delta().catalog;
    for (TableId id : delta.AllTables()) out.push_back(delta.table(id));
  }
  return out;
}

}  // namespace lake::cluster
