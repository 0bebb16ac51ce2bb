#include "ce/mscn.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/check.h"
#include "common/fault.h"
#include "common/stopwatch.h"
#include "query/validate.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace confcard {

namespace {
// 'CMS1' — confcard mscn archive.
constexpr uint32_t kMscnMagic = 0x434D5331;
constexpr uint32_t kMscnVersion = 1;

// Queries per internal forward. Each query's output rows depend only on
// its own packed input rows, so chunk boundaries cannot change any value
// — they only keep the packed set tensors and MLP intermediates inside
// the last-level cache instead of streaming the whole workload through
// DRAM per layer.
constexpr size_t kMscnBatchChunk = 256;
}  // namespace

MscnEstimator::MscnEstimator() : MscnEstimator(Options{}) {}

MscnEstimator::MscnEstimator(Options options) : options_(options) {}

void MscnEstimator::PublishTrainMeta() const {
  obs::Metrics().SetMeta(
      "config.mscn", "epochs=" + std::to_string(options_.model.epochs) +
                         " set_hidden=" +
                         std::to_string(options_.model.set_hidden) +
                         " final_hidden=" +
                         std::to_string(options_.model.final_hidden) +
                         " seed=" + std::to_string(options_.model.seed));
}

void MscnEstimator::RepublishTrainingTelemetry() const {
  if (model_ == nullptr) return;
  PublishTrainMeta();
  obs::Metrics().GetGauge("nn.mscn.last_loss").Set(model_->last_loss());
}

Status MscnEstimator::Train(const Table& table, const Workload& workload) {
  if (workload.empty()) {
    return Status::InvalidArgument("mscn: empty training workload");
  }
  obs::TraceSpan span("train.mscn");
  span.SetAttr("train_queries", static_cast<double>(workload.size()));
  CONFCARD_RETURN_NOT_OK(fault::Check("mscn.train", options_.model.seed));
  PublishTrainMeta();
  obs::Metrics().GetCounter("ce.mscn.trainings").Increment();
  num_rows_ = static_cast<double>(table.num_rows());
  if (options_.bitmap_size > 0) {
    sampler_ = std::make_unique<SamplingEstimator>(
        table, options_.bitmap_size, options_.model.seed ^ 0xB17Eull);
  } else {
    sampler_.reset();
  }
  featurizer_ = std::make_unique<MscnFeaturizer>(table, sampler_.get());
  model_ = std::make_unique<MscnModel>(featurizer_->table_dim(),
                                       featurizer_->join_dim(),
                                       featurizer_->predicate_dim(),
                                       options_.model);

  std::vector<MscnInput> inputs;
  std::vector<double> targets;
  inputs.reserve(workload.size());
  targets.reserve(workload.size());
  for (const LabeledQuery& lq : workload) {
    inputs.push_back(featurizer_->Featurize(lq.query));
    targets.push_back(std::log(lq.cardinality + 1.0));
  }
  return model_->Train(inputs, targets);
}

void MscnEstimator::EstimateBatch(const Query* queries, size_t n,
                                  double* out) const {
  if (n == 0) return;
  CONFCARD_CHECK_MSG(model_ != nullptr, "mscn: not trained");
  static obs::Counter& query_counter =
      obs::Metrics().GetCounter("ce.mscn.queries");
  static obs::Histogram& latency =
      obs::Metrics().GetHistogram("ce.mscn.infer_us");
  Stopwatch watch;
  for (size_t start = 0; start < n; start += kMscnBatchChunk) {
    const size_t end = std::min(n, start + kMscnBatchChunk);
    const size_t bq = end - start;
    MscnPackedBatch packed;
    packed.batch_size = bq;
    packed.table_offsets.resize(bq + 1);
    packed.pred_offsets.resize(bq + 1);
    packed.join_offsets.assign(bq + 1, 0);  // single-table: no join set
    packed.table_offsets[0] = 0;
    packed.pred_offsets[0] = 0;
    size_t npred = 0;
    for (size_t i = 0; i < bq; ++i) {
      packed.table_offsets[i + 1] = i + 1;
      npred += queries[start + i].predicates.size();
      packed.pred_offsets[i + 1] = npred;
    }
    packed.tables = nn::Tensor::Uninitialized(bq, featurizer_->table_dim());
    packed.predicates =
        nn::Tensor::Uninitialized(npred, featurizer_->predicate_dim());
    for (size_t i = 0; i < bq; ++i) {
      const Query& q = queries[start + i];
      featurizer_->FeaturizeTableRowInto(q, packed.tables.RowPtr(i));
      size_t row = packed.pred_offsets[i];
      for (const Predicate& p : q.predicates) {
        featurizer_->FeaturizePredicateRowInto(
            p, packed.predicates.RowPtr(row++));
      }
    }
    model_->PredictLogCardPacked(packed, out + start);
  }
  const bool faults = fault::Enabled();
  for (size_t i = 0; i < n; ++i) {
    // A single-table count can never exceed the table size; clamping also
    // guards against exp() blow-ups on out-of-distribution queries.
    out[i] = std::clamp(std::exp(out[i]) - 1.0, 0.0, num_rows_);
    if (faults) {
      out[i] = fault::PerturbValue("mscn.forward",
                                   QueryContentKey(queries[i]), out[i]);
    }
  }
  const double per_query_us = watch.ElapsedMicros() / static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) latency.Record(per_query_us);
  query_counter.Increment(n);
}

Status MscnEstimator::SaveToFile(const std::string& path) const {
  if (model_ == nullptr) {
    return Status::FailedPrecondition("mscn: not trained");
  }
  ArchiveWriter w(kMscnMagic, kMscnVersion);
  const MscnConfig& mc = options_.model;
  w.WriteU64(mc.set_hidden);
  w.WriteU64(mc.final_hidden);
  w.WriteI32(mc.epochs);
  w.WriteU64(mc.batch_size);
  w.WriteDouble(mc.lr);
  w.WriteI32(mc.loss.kind == LossSpec::kPinball ? 1 : 0);
  w.WriteDouble(mc.loss.tau);
  w.WriteU64(mc.seed);
  w.WriteU64(options_.bitmap_size);
  w.WriteDouble(num_rows_);
  // Featurization dims, validated at load.
  w.WriteU64(featurizer_->table_dim());
  w.WriteU64(featurizer_->predicate_dim());
  model_->SerializeParams(&w);
  return w.SaveToFile(path);
}

Result<MscnEstimator> MscnEstimator::LoadFromFile(const Table& table,
                                                  const std::string& path) {
  CONFCARD_ASSIGN_OR_RETURN(
      ArchiveReader r,
      ArchiveReader::FromFile(path, kMscnMagic, kMscnVersion));
  Options opts;
  opts.model.set_hidden = static_cast<size_t>(r.ReadU64());
  opts.model.final_hidden = static_cast<size_t>(r.ReadU64());
  opts.model.epochs = r.ReadI32();
  opts.model.batch_size = static_cast<size_t>(r.ReadU64());
  opts.model.lr = r.ReadDouble();
  opts.model.loss.kind =
      r.ReadI32() == 1 ? LossSpec::kPinball : LossSpec::kDefault;
  opts.model.loss.tau = r.ReadDouble();
  opts.model.seed = r.ReadU64();
  opts.bitmap_size = static_cast<size_t>(r.ReadU64());
  const double num_rows = r.ReadDouble();
  const uint64_t table_dim = r.ReadU64();
  const uint64_t pred_dim = r.ReadU64();
  CONFCARD_RETURN_NOT_OK(r.status());

  MscnEstimator est(opts);
  est.num_rows_ = static_cast<double>(table.num_rows());
  if (est.num_rows_ != num_rows) {
    return Status::InvalidArgument(
        "mscn archive was trained on a table with a different row count");
  }
  if (opts.bitmap_size > 0) {
    est.sampler_ = std::make_unique<SamplingEstimator>(
        table, opts.bitmap_size, opts.model.seed ^ 0xB17Eull);
  }
  est.featurizer_ =
      std::make_unique<MscnFeaturizer>(table, est.sampler_.get());
  if (est.featurizer_->table_dim() != table_dim ||
      est.featurizer_->predicate_dim() != pred_dim) {
    return Status::InvalidArgument(
        "mscn archive featurization does not match this table");
  }
  est.model_ = std::make_unique<MscnModel>(
      est.featurizer_->table_dim(), est.featurizer_->join_dim(),
      est.featurizer_->predicate_dim(), opts.model);
  CONFCARD_RETURN_NOT_OK(est.model_->DeserializeParams(&r));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in mscn archive");
  }
  return est;
}

std::unique_ptr<SupervisedEstimator> MscnEstimator::CloneArchitecture(
    uint64_t seed_offset) const {
  Options opts = options_;
  opts.model.seed += seed_offset;
  return std::make_unique<MscnEstimator>(opts);
}

void MscnJoinEstimator::RepublishTrainingTelemetry() const {
  if (model_ == nullptr) return;
  obs::Metrics().GetGauge("nn.mscn.last_loss").Set(model_->last_loss());
}

uint64_t MscnJoinEstimator::NextInstanceId() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

MscnJoinEstimator::MscnJoinEstimator(MscnConfig config) : config_(config) {}

Status MscnJoinEstimator::Train(const Database& db,
                                const JoinWorkload& workload) {
  if (workload.empty()) {
    return Status::InvalidArgument("mscn-join: empty training workload");
  }
  obs::TraceSpan span("train.mscn-join");
  span.SetAttr("train_queries", static_cast<double>(workload.size()));
  obs::Metrics().GetCounter("ce.mscn-join.trainings").Increment();
  featurizer_ = std::make_unique<MscnJoinFeaturizer>(db);
  model_ = std::make_unique<MscnModel>(featurizer_->table_dim(),
                                       featurizer_->join_dim(),
                                       featurizer_->predicate_dim(),
                                       config_);
  std::vector<MscnInput> inputs;
  std::vector<double> targets;
  inputs.reserve(workload.size());
  targets.reserve(workload.size());
  for (const LabeledJoinQuery& lq : workload) {
    inputs.push_back(featurizer_->Featurize(lq.query));
    targets.push_back(std::log(lq.cardinality + 1.0));
  }
  return model_->Train(inputs, targets);
}

void MscnJoinEstimator::EstimateBatch(const JoinQuery* queries, size_t n,
                                      double* out) const {
  if (n == 0) return;
  CONFCARD_CHECK_MSG(model_ != nullptr, "mscn-join: not trained");
  static obs::Counter& query_counter =
      obs::Metrics().GetCounter("ce.mscn-join.queries");
  static obs::Histogram& latency =
      obs::Metrics().GetHistogram("ce.mscn-join.infer_us");
  Stopwatch watch;
  for (size_t start = 0; start < n; start += kMscnBatchChunk) {
    const size_t end = std::min(n, start + kMscnBatchChunk);
    const size_t bq = end - start;
    MscnPackedBatch packed;
    packed.batch_size = bq;
    packed.table_offsets.resize(bq + 1);
    packed.join_offsets.resize(bq + 1);
    packed.pred_offsets.resize(bq + 1);
    packed.table_offsets[0] = 0;
    packed.join_offsets[0] = 0;
    packed.pred_offsets[0] = 0;
    size_t nt = 0, nj = 0, np = 0;
    for (size_t i = 0; i < bq; ++i) {
      const JoinQuery& q = queries[start + i];
      nt += q.tables.size();
      nj += q.joins.size();
      np += q.predicates.size();
      packed.table_offsets[i + 1] = nt;
      packed.join_offsets[i + 1] = nj;
      packed.pred_offsets[i + 1] = np;
    }
    packed.tables = nn::Tensor::Uninitialized(nt, featurizer_->table_dim());
    packed.joins = nn::Tensor::Uninitialized(nj, featurizer_->join_dim());
    packed.predicates =
        nn::Tensor::Uninitialized(np, featurizer_->predicate_dim());
    for (size_t i = 0; i < bq; ++i) {
      const JoinQuery& q = queries[start + i];
      size_t trow = packed.table_offsets[i];
      for (const std::string& t : q.tables) {
        featurizer_->FeaturizeTableRowInto(t, packed.tables.RowPtr(trow++));
      }
      size_t jrow = packed.join_offsets[i];
      for (const JoinEdge& e : q.joins) {
        featurizer_->FeaturizeJoinRowInto(e, packed.joins.RowPtr(jrow++));
      }
      size_t prow = packed.pred_offsets[i];
      for (const TablePredicate& tp : q.predicates) {
        featurizer_->FeaturizePredicateRowInto(
            tp, packed.predicates.RowPtr(prow++));
      }
    }
    model_->PredictLogCardPacked(packed, out + start);
  }
  for (size_t i = 0; i < n; ++i) {
    out[i] = std::max(0.0, std::exp(out[i]) - 1.0);
  }
  const double per_query_us = watch.ElapsedMicros() / static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) latency.Record(per_query_us);
  query_counter.Increment(n);
}

std::unique_ptr<MscnJoinEstimator> MscnJoinEstimator::CloneArchitecture(
    uint64_t seed_offset) const {
  MscnConfig cfg = config_;
  cfg.seed += seed_offset;
  return std::make_unique<MscnJoinEstimator>(cfg);
}

std::vector<float> MscnJoinEstimator::FlatFeatures(
    const JoinQuery& query) const {
  CONFCARD_CHECK_MSG(featurizer_ != nullptr, "mscn-join: not trained");
  return featurizer_->FlatFeaturize(query);
}

}  // namespace confcard
