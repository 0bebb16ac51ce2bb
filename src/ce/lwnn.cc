#include "ce/lwnn.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/fault.h"
#include "common/rng.h"
#include "query/validate.h"
#include "nn/arena.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace confcard {
namespace {

// Floor for selectivity features before taking logs.
constexpr double kSelFloor = 1e-9;

}  // namespace

namespace {
// 'CLW1' — confcard lw-nn archive.
constexpr uint32_t kLwnnMagic = 0x434C5731;
constexpr uint32_t kLwnnVersion = 1;
}  // namespace

LwnnEstimator::LwnnEstimator() : LwnnEstimator(Options{}) {}

LwnnEstimator::LwnnEstimator(Options options) : options_(options) {}

std::vector<float> LwnnEstimator::Features(const Query& query) const {
  CONFCARD_CHECK_MSG(flat_ != nullptr, "lw-nn: not trained");
  std::vector<float> f(flat_->dim() + 2);
  FeaturesInto(query, f.data());
  return f;
}

void LwnnEstimator::FeaturesInto(const Query& query, float* dst) const {
  CONFCARD_CHECK_MSG(flat_ != nullptr, "lw-nn: not trained");
  flat_->FeaturizeInto(query, dst);
  // Heuristic-estimator features: log AVI selectivity and log of the
  // minimum per-predicate selectivity (both in [-inf, 0], scaled).
  double avi = 1.0;
  double min_sel = 1.0;
  for (const Predicate& p : query.predicates) {
    double s = std::max(histogram_->PredicateSelectivity(p), kSelFloor);
    avi *= s;
    min_sel = std::min(min_sel, s);
  }
  avi = std::max(avi, kSelFloor);
  const size_t d = flat_->dim();
  dst[d] = static_cast<float>(std::log(avi) / 21.0);      // ~log(1e-9)
  dst[d + 1] = static_cast<float>(std::log(min_sel) / 21.0);
}

void LwnnEstimator::PublishTrainMeta() const {
  obs::Metrics().SetMeta(
      "config.lw-nn", "epochs=" + std::to_string(options_.epochs) +
                          " hidden1=" + std::to_string(options_.hidden1) +
                          " hidden2=" + std::to_string(options_.hidden2) +
                          " seed=" + std::to_string(options_.seed));
}

void LwnnEstimator::RepublishTrainingTelemetry() const {
  if (net_ == nullptr) return;
  PublishTrainMeta();
  obs::Metrics().GetGauge("nn.lw-nn.last_loss").Set(last_loss_);
}

Status LwnnEstimator::Train(const Table& table, const Workload& workload) {
  if (workload.empty()) {
    return Status::InvalidArgument("lw-nn: empty training workload");
  }
  obs::TraceSpan span("train.lw-nn");
  span.SetAttr("train_queries", static_cast<double>(workload.size()));
  CONFCARD_RETURN_NOT_OK(fault::Check("lwnn.train", options_.seed));
  PublishTrainMeta();
  obs::Metrics().GetCounter("ce.lw-nn.trainings").Increment();
  num_rows_ = static_cast<double>(table.num_rows());
  flat_ = std::make_unique<FlatQueryFeaturizer>(table);
  histogram_ =
      std::make_unique<HistogramEstimator>(table, options_.histogram_buckets);

  const size_t dim = flat_->dim() + 2;
  Rng rng(options_.seed);
  net_ = std::make_unique<nn::Mlp>(
      std::vector<size_t>{dim, options_.hidden1, options_.hidden2, 1}, rng);

  std::vector<std::vector<float>> features;
  std::vector<float> targets;
  features.reserve(workload.size());
  targets.reserve(workload.size());
  for (const LabeledQuery& lq : workload) {
    features.push_back(Features(lq.query));
    targets.push_back(static_cast<float>(std::log(lq.cardinality + 1.0)));
  }

  nn::Adam adam(net_->Parameters(), options_.lr);
  std::vector<size_t> order(features.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const size_t bs = std::max<size_t>(1, options_.batch_size);

  obs::Gauge& loss_gauge = obs::Metrics().GetGauge("nn.lw-nn.last_loss");
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    obs::TraceSpan epoch_span("epoch");
    epoch_span.SetAttr("epoch", static_cast<double>(epoch));
    rng.Shuffle(order);
    double loss_sum = 0.0;
    size_t num_batches = 0;
    for (size_t start = 0; start < order.size(); start += bs) {
      const size_t end = std::min(order.size(), start + bs);
      nn::Tensor batch(end - start, dim);
      std::vector<float> y;
      y.reserve(end - start);
      for (size_t i = start; i < end; ++i) {
        std::copy(features[order[i]].begin(), features[order[i]].end(),
                  batch.RowPtr(i - start));
        y.push_back(targets[order[i]]);
      }
      nn::Tensor pred = net_->Forward(batch);
      nn::Tensor grad;
      if (options_.loss.kind == LossSpec::kPinball) {
        loss_sum += nn::PinballLoss(pred, y, options_.loss.tau, &grad);
      } else {
        loss_sum += nn::MseLoss(pred, y, &grad);
      }
      net_->BackwardParams(grad);
      adam.Step();
      ++num_batches;
    }
    const double mean_loss =
        num_batches == 0 ? 0.0 : loss_sum / static_cast<double>(num_batches);
    epoch_span.SetAttr("loss", mean_loss);
    loss_gauge.Set(mean_loss);
    last_loss_ = mean_loss;
    // Epoch boundary: return idle recycled tensor buffers so cache
    // residency never outlives the epoch that shaped it.
    nn::ArenaTrim();
  }
  return Status::OK();
}

void LwnnEstimator::EstimateBatch(const Query* queries, size_t n,
                                  double* out) const {
  if (n == 0) return;
  CONFCARD_CHECK_MSG(net_ != nullptr, "lw-nn: not trained");
  static obs::Counter& query_counter =
      obs::Metrics().GetCounter("ce.lw-nn.queries");
  static obs::Histogram& latency =
      obs::Metrics().GetHistogram("ce.lw-nn.infer_us");
  Stopwatch watch;
  const size_t dim = flat_->dim() + 2;
  nn::Tensor in = nn::Tensor::Uninitialized(n, dim);
  // Features are written straight into the packed tensor rows; with the
  // arena recycling the activation buffers, a steady-state batch of a
  // recurring size performs no heap allocation at all (the serving
  // front-end's bench gates this).
  for (size_t i = 0; i < n; ++i) FeaturesInto(queries[i], in.RowPtr(i));
  nn::Tensor pred = net_->ApplyFused(in);
  const bool faults = fault::Enabled();
  for (size_t i = 0; i < n; ++i) {
    const double card = std::exp(static_cast<double>(pred.At(i, 0))) - 1.0;
    out[i] = std::clamp(card, 0.0, num_rows_);
    if (faults) {
      out[i] = fault::PerturbValue("lwnn.forward",
                                   QueryContentKey(queries[i]), out[i]);
    }
  }
  const double per_query_us = watch.ElapsedMicros() / static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) latency.Record(per_query_us);
  query_counter.Increment(n);
}

Status LwnnEstimator::SaveToFile(const std::string& path) const {
  if (net_ == nullptr) return Status::FailedPrecondition("lw-nn: not trained");
  ArchiveWriter w(kLwnnMagic, kLwnnVersion);
  w.WriteU64(options_.hidden1);
  w.WriteU64(options_.hidden2);
  w.WriteI32(options_.epochs);
  w.WriteU64(options_.batch_size);
  w.WriteDouble(options_.lr);
  w.WriteI32(options_.histogram_buckets);
  w.WriteI32(options_.loss.kind == LossSpec::kPinball ? 1 : 0);
  w.WriteDouble(options_.loss.tau);
  w.WriteU64(options_.seed);
  w.WriteDouble(num_rows_);
  w.WriteU64(flat_->dim());
  nn::SerializeParameters(*net_, &w);
  return w.SaveToFile(path);
}

Result<LwnnEstimator> LwnnEstimator::LoadFromFile(const Table& table,
                                                  const std::string& path) {
  CONFCARD_ASSIGN_OR_RETURN(
      ArchiveReader r,
      ArchiveReader::FromFile(path, kLwnnMagic, kLwnnVersion));
  Options opts;
  opts.hidden1 = static_cast<size_t>(r.ReadU64());
  opts.hidden2 = static_cast<size_t>(r.ReadU64());
  opts.epochs = r.ReadI32();
  opts.batch_size = static_cast<size_t>(r.ReadU64());
  opts.lr = r.ReadDouble();
  opts.histogram_buckets = r.ReadI32();
  opts.loss.kind = r.ReadI32() == 1 ? LossSpec::kPinball : LossSpec::kDefault;
  opts.loss.tau = r.ReadDouble();
  opts.seed = r.ReadU64();
  const double num_rows = r.ReadDouble();
  const uint64_t flat_dim = r.ReadU64();
  CONFCARD_RETURN_NOT_OK(r.status());

  LwnnEstimator est(opts);
  est.num_rows_ = static_cast<double>(table.num_rows());
  if (est.num_rows_ != num_rows) {
    return Status::InvalidArgument(
        "lw-nn archive was trained on a table with a different row count");
  }
  est.flat_ = std::make_unique<FlatQueryFeaturizer>(table);
  if (est.flat_->dim() != flat_dim) {
    return Status::InvalidArgument(
        "lw-nn archive featurization does not match this table");
  }
  est.histogram_ =
      std::make_unique<HistogramEstimator>(table, opts.histogram_buckets);
  Rng rng(opts.seed);
  est.net_ = std::make_unique<nn::Mlp>(
      std::vector<size_t>{est.flat_->dim() + 2, opts.hidden1, opts.hidden2,
                          1},
      rng);
  CONFCARD_RETURN_NOT_OK(nn::DeserializeParameters(*est.net_, &r));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in lw-nn archive");
  }
  return est;
}

std::unique_ptr<SupervisedEstimator> LwnnEstimator::CloneArchitecture(
    uint64_t seed_offset) const {
  Options opts = options_;
  opts.seed += seed_offset;
  return std::make_unique<LwnnEstimator>(opts);
}

}  // namespace confcard
