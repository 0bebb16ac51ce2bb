#include "ce/naru.h"

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

// The degrees of one hidden layer's units (see BuildMade).
std::vector<int> HiddenDegrees(size_t width, int num_cols, Rng& rng) {
  std::vector<int> degrees(width);
  if (num_cols <= 1) {
    // Single column: its logits see no input, so any valid degree does.
    for (auto& d : degrees) d = 1;
    return degrees;
  }
  for (size_t i = 0; i < width; ++i) {
    degrees[i] = 1 + static_cast<int>(rng.NextUint64(
                         static_cast<uint64_t>(num_cols - 1)));
  }
  return degrees;
}

// 1.0f where a weight from a unit of in_degrees[i] into one of
// out_degrees[j] is kept: out >= in, or out > in when `strict`.
nn::Tensor MakeMask(const std::vector<int>& in_degrees,
                    const std::vector<int>& out_degrees, bool strict) {
  nn::Tensor mask(in_degrees.size(), out_degrees.size());
  for (size_t i = 0; i < in_degrees.size(); ++i) {
    for (size_t j = 0; j < out_degrees.size(); ++j) {
      const bool connect = strict ? out_degrees[j] > in_degrees[i]
                                  : out_degrees[j] >= in_degrees[i];
      mask.At(i, j) = connect ? 1.0f : 0.0f;
    }
  }
  return mask;
}

}  // namespace

nn::Mlp BuildMade(const std::vector<size_t>& block_widths, size_t hidden,
                  int hidden_layers, Rng& rng,
                  std::vector<nn::Tensor>* masks) {
  const int num_cols = static_cast<int>(block_widths.size());
  std::vector<int> io_degrees;
  for (int c = 0; c < num_cols; ++c) {
    io_degrees.insert(io_degrees.end(), block_widths[static_cast<size_t>(c)],
                      c + 1);
  }
  const int depth = std::max(hidden_layers, 0);
  masks->clear();
  std::vector<nn::Dense> layers;
  std::vector<int> prev_degrees = io_degrees;
  for (int l = 0; l <= depth; ++l) {
    const bool output = l == depth;
    std::vector<int> degrees =
        output ? io_degrees : HiddenDegrees(hidden, num_cols, rng);
    nn::Tensor mask = MakeMask(prev_degrees, degrees, /*strict=*/output);
    layers.emplace_back(prev_degrees.size(), degrees.size(), rng);
    nn::Tensor& weight = layers.back().weight().value;
    for (size_t i = 0; i < weight.size(); ++i) {
      weight.data()[i] *= mask.data()[i];
    }
    masks->push_back(std::move(mask));
    prev_degrees = std::move(degrees);
  }
  return nn::Mlp(std::move(layers));
}

void ZeroMaskedGradients(const std::vector<nn::Tensor>& masks,
                         const std::vector<nn::Parameter*>& params) {
  CONFCARD_DCHECK(params.size() == 2 * masks.size());
  for (size_t l = 0; l < masks.size(); ++l) {
    const float* mask = masks[l].data().data();
    float* grad = params[2 * l]->grad.data().data();
    for (size_t i = 0; i < masks[l].size(); ++i) {
      if (mask[i] == 0.0f) grad[i] = 0.0f;
    }
  }
}

namespace {
// 'CNR1' — confcard naru archive.
constexpr uint32_t kNaruMagic = 0x434E5231;
constexpr uint32_t kNaruVersion = 1;
}  // namespace

NaruEstimator::NaruEstimator(NaruConfig config) : config_(config) {}

Status NaruEstimator::SaveToFile(const std::string& path) const {
  if (net_ == nullptr) return Status::FailedPrecondition("naru: not trained");
  ArchiveWriter w(kNaruMagic, kNaruVersion);
  w.WriteU64(config_.hidden);
  w.WriteI32(config_.hidden_layers);
  w.WriteI32(config_.epochs);
  w.WriteU64(config_.batch_size);
  w.WriteDouble(config_.lr);
  w.WriteI32(config_.numeric_bins);
  w.WriteU64(config_.max_train_rows);
  w.WriteU64(config_.num_samples);
  w.WriteU64(config_.seed);
  w.WriteDouble(num_rows_);
  w.WriteU64(binner_->TotalBins());
  nn::SerializeParameters(*net_, &w);
  return w.SaveToFile(path);
}

Result<NaruEstimator> NaruEstimator::LoadFromFile(const Table& table,
                                                  const std::string& path) {
  CONFCARD_ASSIGN_OR_RETURN(
      ArchiveReader r,
      ArchiveReader::FromFile(path, kNaruMagic, kNaruVersion));
  NaruConfig cfg;
  cfg.hidden = static_cast<size_t>(r.ReadU64());
  cfg.hidden_layers = r.ReadI32();
  cfg.epochs = r.ReadI32();
  cfg.batch_size = static_cast<size_t>(r.ReadU64());
  cfg.lr = r.ReadDouble();
  cfg.numeric_bins = r.ReadI32();
  cfg.max_train_rows = static_cast<size_t>(r.ReadU64());
  cfg.num_samples = static_cast<size_t>(r.ReadU64());
  cfg.seed = r.ReadU64();
  const double num_rows = r.ReadDouble();
  const uint64_t total_bins = r.ReadU64();
  CONFCARD_RETURN_NOT_OK(r.status());

  NaruEstimator est(cfg);
  est.num_rows_ = static_cast<double>(table.num_rows());
  if (est.num_rows_ != num_rows) {
    return Status::InvalidArgument(
        "naru archive was trained on a table with a different row count");
  }
  est.binner_ = std::make_unique<TableBinner>(table, cfg.numeric_bins);
  if (est.binner_->TotalBins() != total_bins) {
    return Status::InvalidArgument(
        "naru archive discretization does not match this table");
  }
  // Rebuild the network as Train did (the same Rng stream given the same
  // seed and shapes), then overwrite its weights; the masks are only
  // needed for training.
  Rng rng(cfg.seed);
  est.BuildNetwork(rng);
  CONFCARD_RETURN_NOT_OK(nn::DeserializeParameters(*est.net_, &r));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in naru archive");
  }
  return est;
}

std::vector<nn::Tensor> NaruEstimator::BuildNetwork(Rng& rng) {
  std::vector<size_t> widths;
  block_offsets_.assign(1, 0);
  for (size_t c = 0; c < binner_->num_columns(); ++c) {
    widths.push_back(static_cast<size_t>(binner_->column(c).num_bins()));
    block_offsets_.push_back(block_offsets_.back() + widths.back());
  }
  std::vector<nn::Tensor> masks;
  net_ = std::make_unique<nn::Mlp>(BuildMade(
      widths, config_.hidden, config_.hidden_layers, rng, &masks));
  return masks;
}

Status NaruEstimator::Train(const Table& table) {
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("naru: empty table");
  }
  obs::TraceSpan span("train.naru");
  span.SetAttr("rows", static_cast<double>(table.num_rows()));
  CONFCARD_RETURN_NOT_OK(fault::Check("naru.train", config_.seed));
  obs::Metrics().SetMeta(
      "config.naru", "epochs=" + std::to_string(config_.epochs) +
                         " hidden=" + std::to_string(config_.hidden) +
                         " num_samples=" + std::to_string(config_.num_samples) +
                         " seed=" + std::to_string(config_.seed));
  obs::Metrics().GetCounter("ce.naru.trainings").Increment();
  num_rows_ = static_cast<double>(table.num_rows());
  binner_ = std::make_unique<TableBinner>(table, config_.numeric_bins);
  Rng rng(config_.seed);
  const std::vector<nn::Tensor> masks = BuildNetwork(rng);

  // Subsample training rows if needed.
  std::vector<uint32_t> rows(table.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<uint32_t>(i);
  if (rows.size() > config_.max_train_rows) {
    rng.Shuffle(rows);
    rows.resize(config_.max_train_rows);
  }

  // Pre-bin all training rows.
  const size_t num_cols = binner_->num_columns();
  std::vector<std::vector<int>> binned(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    binned[i] = binner_->BinRow(table, rows[i]);
  }

  const size_t total = binner_->TotalBins();
  const std::vector<nn::Parameter*> params = net_->Parameters();
  nn::Adam adam(params, config_.lr);
  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const size_t bs = std::max<size_t>(1, config_.batch_size);

  obs::Gauge& loss_gauge = obs::Metrics().GetGauge("nn.naru.last_loss");
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    obs::TraceSpan epoch_span("epoch");
    epoch_span.SetAttr("epoch", static_cast<double>(epoch));
    rng.Shuffle(order);
    double loss_sum = 0.0;
    size_t num_batches = 0;
    for (size_t start = 0; start < order.size(); start += bs) {
      const size_t end = std::min(order.size(), start + bs);
      const size_t b = end - start;
      nn::Tensor input(b, total);
      std::vector<std::vector<int>> targets(b);
      for (size_t i = 0; i < b; ++i) {
        const std::vector<int>& bins = binned[order[start + i]];
        targets[i] = bins;
        float* row = input.RowPtr(i);
        for (size_t c = 0; c < num_cols; ++c) {
          row[block_offsets_[c] + static_cast<size_t>(bins[c])] = 1.0f;
        }
      }
      nn::Tensor logits = net_->Forward(std::move(input));
      nn::Tensor grad;
      loss_sum +=
          nn::BlockSoftmaxCrossEntropy(logits, block_offsets_, targets, &grad);
      net_->BackwardParams(grad);
      ZeroMaskedGradients(masks, params);
      adam.Step();
      ++num_batches;
    }
    const double mean_loss =
        num_batches == 0 ? 0.0 : loss_sum / static_cast<double>(num_batches);
    epoch_span.SetAttr("loss", mean_loss);
    loss_gauge.Set(mean_loss);
    nn::ArenaTrim();  // epoch boundary: release idle recycled buffers
  }
  return Status::OK();
}

double NaruEstimator::ProgressiveSample(const PreparedQuery& query) const {
  const size_t S = std::max<size_t>(1, config_.num_samples);
  obs::Metrics().GetCounter("ce.naru.progressive_samples").Increment(S);

  // Row s of `input` is sample path s: the one-hot blocks of the columns
  // it has drawn so far, as in a training batch.
  nn::Tensor input(S, binner_->TotalBins());
  std::vector<double> path_prob(S, 1.0);
  std::vector<float> probs;
  Rng rng(config_.seed ^ 0x5EEDBEEFULL);

  for (int c = 0; c <= query.last_constrained; ++c) {
    const size_t lo_off = block_offsets_[static_cast<size_t>(c)];
    const size_t width = block_offsets_[static_cast<size_t>(c) + 1] - lo_off;

    // The hidden layers on every path, then only column c's logits.
    const nn::Tensor logits = net_->ApplyCols(input, lo_off, lo_off + width);

    probs.resize(width);
    const auto [blo, bhi] = query.ranges[static_cast<size_t>(c)];
    for (size_t s = 0; s < S; ++s) {
      // A dead path keeps its row but never draws again.
      if (path_prob[s] == 0.0) continue;
      nn::SoftmaxRow(logits.RowPtr(s), width, probs.data());
      double mass = 0.0;
      if (blo <= bhi) {
        for (int b = blo; b <= bhi; ++b) {
          mass += static_cast<double>(probs[static_cast<size_t>(b)]);
        }
      }
      path_prob[s] *= mass;
      if (path_prob[s] == 0.0) continue;

      double u = rng.NextDouble() * mass;
      int chosen = blo;
      double acc = 0.0;
      for (int b = blo; b <= bhi; ++b) {
        acc += static_cast<double>(probs[static_cast<size_t>(b)]);
        if (u < acc) {
          chosen = b;
          break;
        }
        chosen = b;
      }
      input.At(s, lo_off + static_cast<size_t>(chosen)) = 1.0f;
    }
  }

  double mean = 0.0;
  for (double p : path_prob) mean += p;
  return mean / static_cast<double>(S);
}

double NaruEstimator::Selectivity(const PreparedQuery& query) const {
  if (query.last_constrained < 0) return 1.0;
  if (query.empty_range) return 0.0;
  return ProgressiveSample(query);
}

NaruEstimator::PreparedQuery NaruEstimator::Prepare(const Query& query) const {
  const size_t num_cols = binner_->num_columns();
  PreparedQuery out;
  // Per-column allowed bin range; unconstrained columns span everything.
  out.ranges.resize(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    out.ranges[c] = {0, binner_->column(c).num_bins() - 1};
  }
  for (const Predicate& p : query.predicates) {
    const size_t c = static_cast<size_t>(p.column);
    auto [blo, bhi] = binner_->PredicateBins(p);
    // Intersect with any existing constraint on the column.
    out.ranges[c] = {std::max(out.ranges[c].first, blo),
                     std::min(out.ranges[c].second, bhi)};
    out.last_constrained = std::max(out.last_constrained, p.column);
  }
  for (const Predicate& p : query.predicates) {
    const auto& r = out.ranges[static_cast<size_t>(p.column)];
    if (r.first > r.second) out.empty_range = true;
  }
  return out;
}

double NaruEstimator::EstimateSelectivity(const Query& query) const {
  CONFCARD_CHECK_MSG(net_ != nullptr, "naru: not trained");
  return Selectivity(Prepare(query));
}

void NaruEstimator::EstimateBatch(const Query* queries, size_t n,
                                  double* out) const {
  if (n == 0) return;
  CONFCARD_CHECK_MSG(net_ != nullptr, "naru: not trained");
  static obs::Counter& query_counter =
      obs::Metrics().GetCounter("ce.naru.queries");
  static obs::Histogram& latency =
      obs::Metrics().GetHistogram("ce.naru.infer_us");
  Stopwatch watch;

  for (size_t i = 0; i < n; ++i) {
    const PreparedQuery prepared = Prepare(queries[i]);
    out[i] = Selectivity(prepared) * num_rows_;
    if (fault::Enabled()) {
      const uint64_t key = QueryContentKey(queries[i]);
      if (prepared.last_constrained >= 0 && !prepared.empty_range) {
        out[i] = fault::PerturbValue("sampler.step", key, out[i]);
      }
      out[i] = fault::PerturbValue("naru.forward", key, out[i]);
    }
  }

  // One count per query, and one (amortized) histogram sample per query,
  // so the counts do not depend on how queries were batched.
  const double per_query_us = watch.ElapsedMicros() / static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) latency.Record(per_query_us);
  query_counter.Increment(n);
}

}  // namespace confcard
