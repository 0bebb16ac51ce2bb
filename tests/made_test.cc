// The MADE network Naru trains (BuildMade, ce/naru.h), tested at the
// network level: the logit block of column c must be completely
// invariant to the inputs of columns >= c, at init and after Adam steps
// through Naru's masked training step, and every masked weight must
// stay exactly zero. A violation would silently corrupt every Naru
// probability; these tests pin the invariant structurally.
#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "ce/binner.h"
#include "ce/naru.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "nn/arena.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/simd.h"

namespace confcard {
namespace {

std::vector<size_t> BlockOffsets(const std::vector<size_t>& widths) {
  std::vector<size_t> offsets{0};
  for (size_t w : widths) offsets.push_back(offsets.back() + w);
  return offsets;
}

// A training batch as Naru builds one: per row, one unit set in every
// column's block, and the chosen bins as targets.
struct Batch {
  nn::Tensor input;
  std::vector<std::vector<int>> targets;
};

Batch RandomBatch(const std::vector<size_t>& widths, size_t rows, Rng& rng) {
  const std::vector<size_t> offsets = BlockOffsets(widths);
  Batch batch{nn::Tensor(rows, offsets.back()),
              std::vector<std::vector<int>>(rows)};
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < widths.size(); ++c) {
      const size_t bin = rng.NextUint64(widths[c]);
      batch.input.At(r, offsets[c] + bin) = 1.0f;
      batch.targets[r].push_back(static_cast<int>(bin));
    }
  }
  return batch;
}

// `steps` of Naru's training step on fresh random batches: Forward, the
// block softmax loss, BackwardParams, the mask step, Adam.
void Train(nn::Mlp& net, const std::vector<nn::Tensor>& masks,
           const std::vector<size_t>& widths, int steps, Rng& rng) {
  const std::vector<size_t> offsets = BlockOffsets(widths);
  const std::vector<nn::Parameter*> params = net.Parameters();
  nn::Adam adam(params, /*lr=*/1e-2);
  for (int step = 0; step < steps; ++step) {
    Batch batch = RandomBatch(widths, 16, rng);
    nn::Tensor logits = net.Forward(std::move(batch.input));
    nn::Tensor grad;
    nn::BlockSoftmaxCrossEntropy(logits, offsets, batch.targets, &grad);
    net.BackwardParams(grad);
    ZeroMaskedGradients(masks, params);
    adam.Step();
  }
}

// Perturbs every input at or after block c and expects the logits of
// blocks < c not to move.
void ExpectLogitsOfBlockIgnoreLaterBlocks(const nn::Mlp& net,
                                          const std::vector<size_t>& widths,
                                          Rng& rng) {
  const std::vector<size_t> offsets = BlockOffsets(widths);
  const size_t total = offsets.back();
  const nn::Tensor base = RandomBatch(widths, 1, rng).input;
  const nn::Tensor out_base = net.Apply(base);

  for (size_t c = 0; c < widths.size(); ++c) {
    nn::Tensor perturbed = base;
    for (size_t i = offsets[c]; i < total; ++i) {
      perturbed.At(0, i) = static_cast<float>(rng.NextDouble(-2.0, 2.0));
    }
    const nn::Tensor out = net.Apply(perturbed);
    for (size_t i = 0; i < offsets[c]; ++i) {
      EXPECT_FLOAT_EQ(out.At(0, i), out_base.At(0, i))
          << "block boundary " << c << " logit " << i;
    }
    // And (sanity) later logits generally DO move when there is any
    // earlier dependence to propagate.
    if (c == 0 && widths.size() > 1) {
      bool any_moved = false;
      for (size_t i = offsets[1]; i < total; ++i) {
        if (out.At(0, i) != out_base.At(0, i)) any_moved = true;
      }
      EXPECT_TRUE(any_moved);
    }
  }
}

class MadeInvarianceTest
    : public ::testing::TestWithParam<std::vector<size_t>> {};

TEST_P(MadeInvarianceTest, LogitsOfBlockIgnoreLaterBlocks) {
  const std::vector<size_t> widths = GetParam();
  Rng rng(71);
  std::vector<nn::Tensor> masks;
  const nn::Mlp net = BuildMade(widths, 32, 2, rng, &masks);
  ExpectLogitsOfBlockIgnoreLaterBlocks(net, widths, rng);
}

TEST_P(MadeInvarianceTest, LogitsOfBlockIgnoreLaterBlocksAfterTraining) {
  const std::vector<size_t> widths = GetParam();
  for (int hidden_layers : {0, 1, 2}) {
    SCOPED_TRACE(::testing::Message() << hidden_layers << " hidden layers");
    Rng rng(72);
    std::vector<nn::Tensor> masks;
    nn::Mlp net = BuildMade(widths, 32, hidden_layers, rng, &masks);
    Train(net, masks, widths, 5, rng);
    ExpectLogitsOfBlockIgnoreLaterBlocks(net, widths, rng);
  }
}

TEST_P(MadeInvarianceTest, MaskedWeightsStayZeroUnderAdam) {
  const std::vector<size_t> widths = GetParam();
  Rng rng(73);
  std::vector<nn::Tensor> masks;
  nn::Mlp net = BuildMade(widths, 32, 2, rng, &masks);
  const std::vector<nn::Parameter*> params = net.Parameters();
  ASSERT_EQ(params.size(), 2 * masks.size());
  std::vector<nn::Tensor> initial;
  for (size_t l = 0; l < masks.size(); ++l) {
    initial.push_back(params[2 * l]->value);
  }
  Train(net, masks, widths, 6, rng);

  bool any_kept_moved = false;
  for (size_t l = 0; l < masks.size(); ++l) {
    const nn::Tensor& w = params[2 * l]->value;
    ASSERT_EQ(w.size(), masks[l].size());
    for (size_t i = 0; i < w.size(); ++i) {
      if (masks[l].data()[i] == 0.0f) {
        EXPECT_EQ(w.data()[i], 0.0f) << "layer " << l << " entry " << i;
      } else if (w.data()[i] != initial[l].data()[i]) {
        any_kept_moved = true;
      }
    }
  }
  // Sanity: the steps did train the kept weights wherever the loss
  // depends on one, i.e. some column after the first has two or more
  // bins. (A one-bin block's softmax is constant.)
  bool conditional = false;
  for (size_t c = 1; c < widths.size(); ++c) conditional |= widths[c] > 1;
  EXPECT_EQ(any_kept_moved, conditional);
}

INSTANTIATE_TEST_SUITE_P(
    BlockShapes, MadeInvarianceTest,
    ::testing::Values(std::vector<size_t>{3, 4},
                      std::vector<size_t>{2, 2, 2},
                      std::vector<size_t>{5, 3, 7, 2},
                      std::vector<size_t>{1, 1, 1, 1, 1},
                      std::vector<size_t>{10}));

TEST(MadeTest, MaskStepZeroesExactlyTheMaskedGradients) {
  Rng rng(74);
  const std::vector<size_t> widths{3, 2, 4};
  std::vector<nn::Tensor> masks;
  nn::Mlp net = BuildMade(widths, 8, 1, rng, &masks);
  const std::vector<nn::Parameter*> params = net.Parameters();
  Batch batch = RandomBatch(widths, 6, rng);
  net.Forward(batch.input);
  net.BackwardParams(nn::Tensor::Randn(6, 9, 1.0f, rng));
  std::vector<nn::Tensor> before;
  for (nn::Parameter* p : params) before.push_back(p->grad);
  ZeroMaskedGradients(masks, params);

  for (size_t p = 0; p < params.size(); ++p) {
    const nn::Tensor& grad = params[p]->grad;
    for (size_t i = 0; i < grad.size(); ++i) {
      const bool masked = p % 2 == 0 && masks[p / 2].data()[i] == 0.0f;
      if (masked) {
        // +0.0f, not -0.0f: the bits 0 + g * 0 had for finite g.
        EXPECT_FALSE(std::signbit(grad.data()[i]));
        EXPECT_EQ(grad.data()[i], 0.0f);
      } else {
        EXPECT_EQ(grad.data()[i], before[p].data()[i]);
      }
    }
  }
}

// Tensor allocations of the second of two identical calls of `step`,
// counted as this thread's arena hits plus misses: the first call gives
// every kept tensor its shape.
uint64_t SteadyStateAllocations(const std::function<void()>& step) {
  step();
  const nn::ArenaStats before = nn::ArenaThreadStats();
  step();
  const nn::ArenaStats after = nn::ArenaThreadStats();
  return after.hits + after.misses - before.hits - before.misses;
}

TEST(MadeTest, TrainingStepAllocatesOnlyTheProducts) {
  // pi_offline's Naru: the 5,000-row DMV table's bins, 2 hidden layers
  // of 64, batches of 128.
  auto table = MakeDmv(5000, 7);
  ASSERT_TRUE(table.ok());
  const TableBinner binner(table.value(), 32);
  std::vector<size_t> widths;
  for (size_t c = 0; c < binner.num_columns(); ++c) {
    widths.push_back(static_cast<size_t>(binner.column(c).num_bins()));
  }
  Rng rng(75);
  std::vector<nn::Tensor> masks;
  nn::Mlp net = BuildMade(widths, 64, 2, rng, &masks);
  const std::vector<nn::Parameter*> params = net.Parameters();
  const nn::Tensor in = RandomBatch(widths, 128, rng).input;
  const nn::Tensor grad =
      nn::Tensor::Randn(128, binner.TotalBins(), 1.0f, rng);
  // As MlpTest.TrainingStepAllocatesOnlyTheProducts: the input copy the
  // first layer keeps, each layer's output and each input gradient above
  // the first layer (6), plus the kernels' own temporaries: on the vector
  // path a kept-term list per product (8) and B^T per MatMulTransB (2);
  // on the scalar path each weight gradient's product (3). The mask step
  // writes in place.
  EXPECT_LE(SteadyStateAllocations([&] {
              net.Forward(in);
              net.BackwardParams(grad);
              ZeroMaskedGradients(masks, params);
            }),
            nn::SimdEnabled() ? 16u : 9u);
}

}  // namespace
}  // namespace confcard
