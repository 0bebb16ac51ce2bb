#include "ce/mscn_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "nn/arena.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace confcard {
namespace {

// Packs one set kind across the batch into a single tensor; records
// per-sample offsets.
nn::Tensor PackSet(const std::vector<const MscnInput*>& batch,
                   const std::vector<std::vector<float>> MscnInput::*member,
                   size_t dim, std::vector<size_t>* offsets) {
  offsets->clear();
  offsets->push_back(0);
  size_t total = 0;
  for (const MscnInput* in : batch) {
    total += (in->*member).size();
    offsets->push_back(total);
  }
  // Every real row is overwritten below; the single padding row of an
  // all-empty pack is never read (callers bail out when offsets.back()
  // is 0), so skipping the zero-fill is safe.
  nn::Tensor packed = nn::Tensor::Uninitialized(std::max<size_t>(total, 1), dim);
  size_t row = 0;
  for (const MscnInput* in : batch) {
    for (const auto& vec : in->*member) {
      CONFCARD_DCHECK(vec.size() == dim);
      std::copy(vec.begin(), vec.end(), packed.RowPtr(row));
      ++row;
    }
  }
  return packed;
}

// Mean-pools per-sample segments of `elems` into the elems.cols()-wide
// block of `*out` starting at column `col_offset` (rows of `*out` must
// be zero there). Writing the pooled means in place of the destination
// block skips the (B, dim) temporary a pool-then-copy would need.
void PoolMeanInto(const nn::Tensor& elems, const std::vector<size_t>& offsets,
                  size_t batch, nn::Tensor* out, size_t col_offset) {
  for (size_t b = 0; b < batch; ++b) {
    const size_t lo = offsets[b], hi = offsets[b + 1];
    if (hi == lo) continue;  // empty set pools to zero
    float* orow = out->RowPtr(b) + col_offset;
    for (size_t r = lo; r < hi; ++r) {
      const float* erow = elems.RowPtr(r);
      for (size_t c = 0; c < elems.cols(); ++c) orow[c] += erow[c];
    }
    const float inv = 1.0f / static_cast<float>(hi - lo);
    for (size_t c = 0; c < elems.cols(); ++c) orow[c] *= inv;
  }
}

// Mean-pools per-sample segments of `elems` into a (B, dim) tensor.
nn::Tensor PoolMean(const nn::Tensor& elems,
                    const std::vector<size_t>& offsets, size_t batch) {
  nn::Tensor out(batch, elems.cols());
  PoolMeanInto(elems, offsets, batch, &out, 0);
  return out;
}

// Distributes pooled gradients back to set elements (inverse of
// PoolMean).
nn::Tensor UnpoolMean(const nn::Tensor& grad_pooled,
                      const std::vector<size_t>& offsets,
                      size_t total_elems) {
  nn::Tensor out(std::max<size_t>(total_elems, 1), grad_pooled.cols());
  const size_t batch = grad_pooled.rows();
  for (size_t b = 0; b < batch; ++b) {
    const size_t lo = offsets[b], hi = offsets[b + 1];
    if (hi == lo) continue;
    const float inv = 1.0f / static_cast<float>(hi - lo);
    const float* grow = grad_pooled.RowPtr(b);
    for (size_t r = lo; r < hi; ++r) {
      float* orow = out.RowPtr(r);
      for (size_t c = 0; c < grad_pooled.cols(); ++c) {
        orow[c] = grow[c] * inv;
      }
    }
  }
  return out;
}

}  // namespace

MscnModel::MscnModel(size_t table_dim, size_t join_dim, size_t pred_dim,
                     const MscnConfig& config)
    : config_(config),
      table_dim_(table_dim),
      join_dim_(join_dim),
      pred_dim_(pred_dim) {
  Rng rng(config.seed);
  const size_t h = config.set_hidden;
  table_mlp_ = std::make_unique<nn::Mlp>(
      std::vector<size_t>{table_dim, h, h}, rng);
  join_mlp_ =
      std::make_unique<nn::Mlp>(std::vector<size_t>{join_dim, h, h}, rng);
  pred_mlp_ =
      std::make_unique<nn::Mlp>(std::vector<size_t>{pred_dim, h, h}, rng);
  out_mlp_ = std::make_unique<nn::Mlp>(
      std::vector<size_t>{3 * h, config.final_hidden, 1}, rng);
}

std::vector<nn::Parameter*> MscnModel::TrainedParameters(
    const std::vector<MscnInput>& inputs) {
  // A set module that no input has a row in never gets a gradient, so
  // Adam would leave its weights exactly as they are (a zero moment
  // makes a zero step); it stays out of the optimizer. On a single
  // table that is the join module.
  using Set = std::vector<std::vector<float>> MscnInput::*;
  auto any_row = [&inputs](Set set) {
    return std::any_of(
        inputs.begin(), inputs.end(),
        [set](const MscnInput& in) { return !(in.*set).empty(); });
  };
  const std::pair<nn::Mlp*, bool> modules[] = {
      {table_mlp_.get(), any_row(&MscnInput::tables)},
      {join_mlp_.get(), any_row(&MscnInput::joins)},
      {pred_mlp_.get(), any_row(&MscnInput::predicates)},
      {out_mlp_.get(), true}};
  std::vector<nn::Parameter*> out;
  for (const auto& [mlp, trained] : modules) {
    if (!trained) continue;
    for (nn::Parameter* p : mlp->Parameters()) out.push_back(p);
  }
  return out;
}

nn::Tensor MscnModel::Forward(const std::vector<const MscnInput*>& batch) {
  batch_size_ = batch.size();
  const size_t h = config_.set_hidden;

  nn::Tensor pooled(batch_size_, 3 * h);

  auto run_set = [&](const std::vector<std::vector<float>> MscnInput::*member,
                     nn::Mlp* mlp, size_t dim, SetScratch* scratch,
                     size_t out_offset) {
    nn::Tensor packed = PackSet(batch, member, dim, &scratch->offsets);
    scratch->any = scratch->offsets.back() > 0;
    if (!scratch->any) return;  // all sets empty: pooled stays zero
    nn::Tensor hidden = mlp->Forward(packed);
    nn::Tensor mean = PoolMean(hidden, scratch->offsets, batch_size_);
    for (size_t b = 0; b < batch_size_; ++b) {
      std::copy(mean.RowPtr(b), mean.RowPtr(b) + h,
                pooled.RowPtr(b) + out_offset);
    }
  };

  run_set(&MscnInput::tables, table_mlp_.get(), table_dim_, &table_scratch_,
          0);
  run_set(&MscnInput::joins, join_mlp_.get(), join_dim_, &join_scratch_, h);
  run_set(&MscnInput::predicates, pred_mlp_.get(), pred_dim_,
          &pred_scratch_, 2 * h);

  return out_mlp_->Forward(pooled);
}

void MscnModel::Backward(const nn::Tensor& grad_pred) {
  nn::Tensor grad_pooled = out_mlp_->Backward(grad_pred);
  const size_t h = config_.set_hidden;

  auto back_set = [&](nn::Mlp* mlp, SetScratch* scratch, size_t offset) {
    if (!scratch->any) return;
    nn::Tensor grad_mean(batch_size_, h);
    for (size_t b = 0; b < batch_size_; ++b) {
      std::copy(grad_pooled.RowPtr(b) + offset,
                grad_pooled.RowPtr(b) + offset + h, grad_mean.RowPtr(b));
    }
    nn::Tensor grad_elems =
        UnpoolMean(grad_mean, scratch->offsets, scratch->offsets.back());
    mlp->BackwardParams(grad_elems);
  };

  back_set(table_mlp_.get(), &table_scratch_, 0);
  back_set(join_mlp_.get(), &join_scratch_, h);
  back_set(pred_mlp_.get(), &pred_scratch_, 2 * h);
}

Status MscnModel::Train(const std::vector<MscnInput>& inputs,
                        const std::vector<double>& log_targets) {
  if (inputs.empty()) return Status::InvalidArgument("empty training set");
  if (inputs.size() != log_targets.size()) {
    return Status::InvalidArgument("inputs/targets size mismatch");
  }
  nn::Adam adam(TrainedParameters(inputs), config_.lr);
  Rng rng(config_.seed ^ 0xA5A5A5A5ULL);

  std::vector<size_t> order(inputs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  const size_t bs = std::max<size_t>(1, config_.batch_size);
  obs::Gauge& loss_gauge = obs::Metrics().GetGauge("nn.mscn.last_loss");
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    obs::TraceSpan epoch_span("epoch");
    epoch_span.SetAttr("epoch", static_cast<double>(epoch));
    // Step decay stabilizes the heavy-tailed q-error loss: full rate for
    // the first half of training, then halved twice.
    double lr = config_.lr;
    if (epoch >= config_.epochs / 2) lr *= 0.5;
    if (epoch >= 3 * config_.epochs / 4) lr *= 0.5;
    adam.set_lr(lr);
    rng.Shuffle(order);
    double loss_sum = 0.0;
    size_t num_batches = 0;
    for (size_t start = 0; start < order.size(); start += bs) {
      const size_t end = std::min(order.size(), start + bs);
      std::vector<const MscnInput*> batch;
      std::vector<float> targets;
      batch.reserve(end - start);
      for (size_t i = start; i < end; ++i) {
        batch.push_back(&inputs[order[i]]);
        targets.push_back(static_cast<float>(log_targets[order[i]]));
      }
      nn::Tensor pred = Forward(batch);
      nn::Tensor grad;
      if (config_.loss.kind == LossSpec::kPinball) {
        loss_sum += nn::PinballLoss(pred, targets, config_.loss.tau, &grad);
      } else {
        loss_sum += nn::QErrorLogLoss(pred, targets, &grad);
      }
      Backward(grad);
      adam.Step();
      ++num_batches;
    }
    const double mean_loss =
        num_batches == 0 ? 0.0 : loss_sum / static_cast<double>(num_batches);
    epoch_span.SetAttr("loss", mean_loss);
    loss_gauge.Set(mean_loss);
    last_loss_ = mean_loss;
    nn::ArenaTrim();  // epoch boundary: release idle recycled buffers
  }
  return Status::OK();
}

void MscnModel::SerializeParams(ArchiveWriter* writer) {
  // All four set/output MLPs, an untrained join module included.
  for (nn::Mlp* m : {table_mlp_.get(), join_mlp_.get(), pred_mlp_.get(),
                     out_mlp_.get()}) {
    nn::SerializeParameters(*m, writer);
  }
}

Status MscnModel::DeserializeParams(ArchiveReader* reader) {
  for (nn::Mlp* m : {table_mlp_.get(), join_mlp_.get(), pred_mlp_.get(),
                     out_mlp_.get()}) {
    CONFCARD_RETURN_NOT_OK(nn::DeserializeParameters(*m, reader));
  }
  return Status::OK();
}

nn::Tensor MscnModel::ApplyPacked(const MscnPackedBatch& batch) const {
  const size_t batch_size = batch.batch_size;
  const size_t h = config_.set_hidden;

  nn::Tensor pooled(batch_size, 3 * h);

  auto run_set = [&](const nn::Tensor& packed,
                     const std::vector<size_t>& offsets, const nn::Mlp* mlp,
                     size_t out_offset) {
    if (offsets.empty() || offsets.back() == 0) return;  // all sets empty
    nn::Tensor hidden = mlp->ApplyFused(packed);
    PoolMeanInto(hidden, offsets, batch_size, &pooled, out_offset);
  };

  run_set(batch.tables, batch.table_offsets, table_mlp_.get(), 0);
  run_set(batch.joins, batch.join_offsets, join_mlp_.get(), h);
  run_set(batch.predicates, batch.pred_offsets, pred_mlp_.get(), 2 * h);

  return out_mlp_->ApplyFused(pooled);
}

void MscnModel::PredictLogCardPacked(const MscnPackedBatch& batch,
                                     double* out) const {
  if (batch.batch_size == 0) return;
  nn::Tensor pred = ApplyPacked(batch);
  for (size_t i = 0; i < batch.batch_size; ++i) {
    out[i] = static_cast<double>(pred.At(i, 0));
  }
}

double MscnModel::PredictLogCard(const MscnInput& input) const {
  const std::vector<const MscnInput*> one = {&input};
  MscnPackedBatch packed;
  packed.batch_size = 1;
  packed.tables =
      PackSet(one, &MscnInput::tables, table_dim_, &packed.table_offsets);
  packed.joins =
      PackSet(one, &MscnInput::joins, join_dim_, &packed.join_offsets);
  packed.predicates =
      PackSet(one, &MscnInput::predicates, pred_dim_, &packed.pred_offsets);
  double out = 0.0;
  PredictLogCardPacked(packed, &out);
  return out;
}

}  // namespace confcard
