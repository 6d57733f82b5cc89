#include "core/adamgnn_model.h"

#include <string>
#include <vector>

#include "autograd/loss_ops.h"
#include "autograd/ops.h"
#include "core/adapters.h"
#include "core/flyback.h"
#include "core/losses.h"
#include "graph/batch.h"
#include "gtest/gtest.h"
#include "nn/optimizer.h"
#include "obs/trace.h"
#include "test_util.h"
#include "util/random.h"

namespace adamgnn::core {
namespace {

using adamgnn::testing::Ring;
using adamgnn::testing::TwoTriangles;
using autograd::Variable;
using tensor::Matrix;

AdamGnnConfig SmallConfig(size_t in_dim, size_t classes) {
  AdamGnnConfig c;
  c.in_dim = in_dim;
  c.hidden_dim = 8;
  c.num_classes = classes;
  c.num_levels = 2;
  c.dropout = 0.0;
  return c;
}

TEST(FlybackTest, NoMessagesReturnsPrimary) {
  util::Rng rng(1);
  FlybackAggregator fb(4, &rng);
  Variable h0 = Variable::Constant(Matrix::Gaussian(5, 4, 1.0, &rng));
  FlybackAggregator::Output out = fb.Aggregate(h0, {});
  EXPECT_TRUE(tensor::AllClose(out.h.value(), h0.value(), 0.0));
  EXPECT_EQ(out.attention.cols(), 0u);
}

TEST(FlybackTest, AttentionRowsSumToOne) {
  util::Rng rng(2);
  FlybackAggregator fb(4, &rng);
  Variable h0 = Variable::Constant(Matrix::Gaussian(5, 4, 1.0, &rng));
  std::vector<Variable> msgs = {
      Variable::Constant(Matrix::Gaussian(5, 4, 1.0, &rng)),
      Variable::Constant(Matrix::Gaussian(5, 4, 1.0, &rng)),
      Variable::Constant(Matrix::Gaussian(5, 4, 1.0, &rng))};
  FlybackAggregator::Output out = fb.Aggregate(h0, msgs);
  EXPECT_EQ(out.attention.rows(), 5u);
  EXPECT_EQ(out.attention.cols(), 3u);
  for (size_t r = 0; r < 5; ++r) {
    double sum = 0;
    for (size_t c = 0; c < 3; ++c) sum += out.attention(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-10);
  }
}

TEST(FlybackTest, OutputDiffersFromPrimaryWhenMessagesNonZero) {
  util::Rng rng(3);
  FlybackAggregator fb(4, &rng);
  Variable h0 = Variable::Constant(Matrix::Gaussian(5, 4, 1.0, &rng));
  std::vector<Variable> msgs = {
      Variable::Constant(Matrix::Gaussian(5, 4, 1.0, &rng))};
  FlybackAggregator::Output out = fb.Aggregate(h0, msgs);
  EXPECT_FALSE(tensor::AllClose(out.h.value(), h0.value(), 1e-9));
}

TEST(AdamGnnTest, ForwardShapesOnSmallGraph) {
  graph::Graph g = TwoTriangles();
  util::Rng rng(4);
  AdamGnn model(SmallConfig(4, 2), &rng);
  util::Rng frng(5);
  AdamGnn::Output out = model.Forward(g, /*training=*/false, &frng);
  EXPECT_EQ(out.embeddings.rows(), 6u);
  EXPECT_EQ(out.embeddings.cols(), 8u);
  EXPECT_EQ(out.logits.rows(), 6u);
  EXPECT_EQ(out.logits.cols(), 2u);
  EXPECT_TRUE(out.embeddings.value().AllFinite());
  EXPECT_FALSE(out.levels.empty());
  EXPECT_FALSE(out.level1_egos.empty());
  EXPECT_TRUE(out.aux_loss.defined());
}

TEST(AdamGnnTest, LevelsCompressMonotonically) {
  graph::Graph g = Ring(40, 6, 7);
  util::Rng rng(6);
  AdamGnnConfig c = SmallConfig(6, 2);
  c.num_levels = 4;
  AdamGnn model(c, &rng);
  util::Rng frng(7);
  AdamGnn::Output out = model.Forward(g, false, &frng);
  ASSERT_GE(out.levels.size(), 2u);
  for (const LevelInfo& info : out.levels) {
    EXPECT_LT(info.num_hyper_nodes, info.num_prev_nodes);
    EXPECT_EQ(info.num_hyper_nodes,
              info.num_selected_egos + info.num_retained);
  }
  for (size_t k = 1; k < out.levels.size(); ++k) {
    EXPECT_EQ(out.levels[k].num_prev_nodes,
              out.levels[k - 1].num_hyper_nodes);
  }
}

TEST(AdamGnnTest, StageSpansNoteEveryLevel) {
  if (obs::TraceBuffer::kDefaultCapacity == 0 || !obs::Enabled()) {
    GTEST_SKIP() << "observability is compiled out or switched off";
  }
  graph::Graph g = Ring(40, 6, 7);
  util::Rng rng(6);
  AdamGnnConfig c = SmallConfig(6, 2);
  c.num_levels = 4;
  AdamGnn model(c, &rng);
  obs::TraceBuffer::Global().Reset();
  util::Rng frng(7);
  AdamGnn::Output out = model.Forward(g, false, &frng);
  ASSERT_GE(out.levels.size(), 2u);
  auto attr = [](const obs::TraceEvent& e, const std::string& key) {
    for (uint32_t i = 0; i < e.num_attrs; ++i) {
      if (key == e.attrs[i].key) return e.attrs[i].value;
    }
    ADD_FAILURE() << e.name << " has no " << key;
    return -1.0;
  };
  std::vector<obs::TraceEvent> fitness, coarsen;
  for (const obs::TraceEvent& e : obs::TraceBuffer::Global().Snapshot()) {
    if (std::string(e.name) == "stage.fitness") fitness.push_back(e);
    if (std::string(e.name) == "stage.coarsen") coarsen.push_back(e);
  }
  // Every built level is scored and coarsened; the cascade may also score
  // one more level and then stop because it would not compress.
  ASSERT_EQ(coarsen.size(), out.levels.size());
  ASSERT_GE(fitness.size(), coarsen.size());
  for (size_t k = 0; k < coarsen.size(); ++k) {
    const LevelInfo& info = out.levels[k];
    EXPECT_EQ(attr(fitness[k], "level"), static_cast<double>(k));
    EXPECT_EQ(attr(coarsen[k], "level"), static_cast<double>(k));
    EXPECT_GT(attr(fitness[k], "pairs"), 0.0);
    EXPECT_EQ(attr(coarsen[k], "pairs"), attr(fitness[k], "pairs"));
    EXPECT_GT(attr(fitness[k], "nnz"), 0.0);
    EXPECT_GT(attr(coarsen[k], "nnz"), 0.0);
    EXPECT_LE(attr(coarsen[k], "nnz"),
              static_cast<double>(info.num_hyper_nodes * info.num_hyper_nodes));
  }
}

TEST(AdamGnnTest, FlybackAttentionShapeMatchesLevels) {
  graph::Graph g = Ring(30, 4, 8);
  util::Rng rng(8);
  AdamGnnConfig c = SmallConfig(4, 2);
  c.num_levels = 3;
  AdamGnn model(c, &rng);
  util::Rng frng(9);
  AdamGnn::Output out = model.Forward(g, false, &frng);
  EXPECT_EQ(out.flyback_attention.rows(), 30u);
  EXPECT_EQ(out.flyback_attention.cols(), out.levels.size());
}

TEST(AdamGnnTest, AblationTogglesChangeOutputs) {
  graph::Graph g = TwoTriangles();
  util::Rng rng(10);
  AdamGnnConfig base = SmallConfig(4, 2);

  AdamGnnConfig no_fb = base;
  no_fb.use_flyback = false;
  util::Rng r1(11), r2(11), f1(12), f2(12);
  AdamGnn with_fb(base, &r1);
  AdamGnn without_fb(no_fb, &r2);
  Matrix h_with = with_fb.Forward(g, false, &f1).embeddings.value();
  Matrix h_without = without_fb.Forward(g, false, &f2).embeddings.value();
  EXPECT_FALSE(tensor::AllClose(h_with, h_without, 1e-9));

  AdamGnnConfig no_aux = base;
  no_aux.use_kl_loss = false;
  no_aux.use_recon_loss = false;
  util::Rng r3(11), f3(12);
  AdamGnn bare(no_aux, &r3);
  EXPECT_FALSE(bare.Forward(g, false, &f3).aux_loss.defined());
}

TEST(AdamGnnTest, GraphLogitsOverBatch) {
  util::Rng rng(13);
  graph::GraphBuilder b1(4), b2(5);
  for (int i = 0; i + 1 < 4; ++i) b1.AddEdge(i, i + 1).CheckOK();
  for (int i = 0; i + 1 < 5; ++i) b2.AddEdge(i, i + 1).CheckOK();
  b1.SetFeatures(Matrix::Gaussian(4, 3, 1.0, &rng)).CheckOK();
  b2.SetFeatures(Matrix::Gaussian(5, 3, 1.0, &rng)).CheckOK();
  b1.SetGraphLabel(0);
  b2.SetGraphLabel(1);
  graph::Graph g1 = std::move(b1).Build().ValueOrDie();
  graph::Graph g2 = std::move(b2).Build().ValueOrDie();
  graph::GraphBatch batch = graph::MakeBatch({&g1, &g2}).ValueOrDie();

  AdamGnnGraphModel model(SmallConfig(3, 0), 2, &rng);
  util::Rng frng(14);
  auto out = model.Forward(batch, false, &frng);
  EXPECT_EQ(out.logits.rows(), 2u);
  EXPECT_EQ(out.logits.cols(), 2u);
}

TEST(AdamGnnTest, TrainingStepReducesLoss) {
  graph::Graph g = TwoTriangles();
  util::Rng rng(15);
  AdamGnnConfig c = SmallConfig(4, 2);
  AdamGnn model(c, &rng);
  nn::Adam opt(model.Parameters(), 0.02);
  std::vector<size_t> rows = {0, 1, 2, 3, 4, 5};
  util::Rng frng(16);
  double first = 0, last = 0;
  for (int step = 0; step < 30; ++step) {
    AdamGnn::Output out = model.Forward(g, true, &frng);
    Variable loss =
        autograd::SoftmaxCrossEntropy(out.logits, g.labels(), rows);
    if (out.aux_loss.defined()) loss = autograd::Add(loss, out.aux_loss);
    if (step == 0) first = loss.value()(0, 0);
    last = loss.value()(0, 0);
    autograd::Backward(loss);
    opt.Step();
  }
  EXPECT_LT(last, first);
}

TEST(AdamGnnTest, ReconstructionLossPositiveAndFinite) {
  graph::Graph g = TwoTriangles();
  util::Rng rng(17);
  Variable h = Variable::Constant(Matrix::Gaussian(6, 4, 1.0, &rng));
  Variable loss = ReconstructionLoss(h, g, &rng);
  EXPECT_GT(loss.value()(0, 0), 0.0);
  EXPECT_TRUE(loss.value().AllFinite());
}

TEST(AdamGnnTest, LambdaTwoConfigRuns) {
  graph::Graph g = Ring(20, 4, 18);
  util::Rng rng(18);
  AdamGnnConfig c = SmallConfig(4, 2);
  c.lambda = 2;
  AdamGnn model(c, &rng);
  util::Rng frng(19);
  AdamGnn::Output out = model.Forward(g, false, &frng);
  EXPECT_TRUE(out.embeddings.value().AllFinite());
  // λ=2 ego-networks cover more nodes per ego, so pooling is at least as
  // aggressive as λ=1.
  EXPECT_FALSE(out.levels.empty());
}

class LevelSweep : public ::testing::TestWithParam<int> {};

TEST_P(LevelSweep, ModelRunsWithKLevels) {
  graph::Graph g = Ring(36, 5, 20);
  util::Rng rng(21);
  AdamGnnConfig c = SmallConfig(5, 3);
  c.num_levels = GetParam();
  AdamGnn model(c, &rng);
  util::Rng frng(22);
  AdamGnn::Output out = model.Forward(g, false, &frng);
  EXPECT_TRUE(out.embeddings.value().AllFinite());
  EXPECT_LE(out.levels.size(), static_cast<size_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Levels, LevelSweep, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace adamgnn::core
