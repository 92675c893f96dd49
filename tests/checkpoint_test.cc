// Checkpoint format tests: exact round-trips, hostile-input rejection
// (truncation, bad magic, version skew, CRC corruption, limit breaches),
// and the propagation sidecar cache.

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/core/hash.h"
#include "src/core/random.h"
#include "src/data/generators.h"
#include "src/data/splits.h"
#include "src/io/binary.h"
#include "src/io/checkpoint.h"
#include "src/models/adpa.h"
#include "src/models/factory.h"
#include "src/train/trainer.h"

namespace adpa {
namespace {

Dataset Tiny(uint64_t seed = 5) {
  DsbmConfig config;
  config.num_nodes = 60;
  config.num_classes = 3;
  config.avg_out_degree = 4.0;
  config.class_transition = HomophilousTransition(3, 0.7);
  config.feature_dim = 6;
  config.seed = seed;
  Dataset ds = std::move(GenerateDsbm(config)).value();
  Rng rng(seed);
  Split split =
      std::move(SplitFractions(ds.labels, 3, 0.5, 0.25, &rng)).value();
  ds.train_idx = split.train;
  ds.val_idx = split.val;
  ds.test_idx = split.test;
  return ds;
}

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(),
                      static_cast<size_t>(a.size()) * sizeof(float)) == 0);
}

/// Trains a small ADPA model for 3 epochs and checkpoints it.
struct TrainedFixture {
  Dataset dataset;
  ModelPtr model;
  ModelConfig config;
  TrainConfig train_config;
  Checkpoint checkpoint;
  Matrix logits;  // eval forward after training

  explicit TrainedFixture(uint64_t seed = 7) : dataset(Tiny(seed)) {
    config.hidden = 16;
    config.dropout = 0.2f;
    Rng rng(seed);
    model = std::move(CreateModel("ADPA", dataset, config, &rng)).value();
    train_config.max_epochs = 3;
    train_config.patience = 0;
    TrainModel(model.get(), dataset, train_config, &rng);
    logits = model->Forward(/*training=*/false, &rng).value();
    checkpoint =
        MakeCheckpoint(*model, "ADPA", dataset, config, train_config);
  }
};

std::string Serialize(const Checkpoint& checkpoint) {
  std::ostringstream out;
  EXPECT_TRUE(SaveCheckpointToStream(checkpoint, out).ok());
  return out.str();
}

Result<Checkpoint> Deserialize(const std::string& bytes,
                               const CheckpointLimits& limits = {}) {
  std::istringstream in(bytes);
  return TryLoadCheckpointFromStream(in, limits);
}

TEST(CheckpointTest, RoundTripIsExact) {
  TrainedFixture fixture;
  Result<Checkpoint> loaded = Deserialize(Serialize(fixture.checkpoint));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->model_name, "ADPA");
  EXPECT_EQ(loaded->dataset_name, fixture.dataset.name);
  EXPECT_EQ(loaded->dataset_hash, DatasetContentHash(fixture.dataset));
  EXPECT_EQ(loaded->model_config.hidden, fixture.config.hidden);
  EXPECT_EQ(loaded->model_config.dropout, fixture.config.dropout);
  EXPECT_EQ(loaded->model_config.propagation_steps,
            fixture.config.propagation_steps);
  EXPECT_EQ(loaded->model_config.conv_r, fixture.config.conv_r);
  EXPECT_EQ(static_cast<int>(loaded->model_config.dp_attention),
            static_cast<int>(fixture.config.dp_attention));
  EXPECT_EQ(loaded->train_config.max_epochs, 3);
  EXPECT_EQ(loaded->train_config.learning_rate,
            fixture.train_config.learning_rate);
  EXPECT_EQ(loaded->patterns, fixture.checkpoint.patterns);
  ASSERT_EQ(loaded->tensors.size(), fixture.checkpoint.tensors.size());
  for (size_t i = 0; i < loaded->tensors.size(); ++i) {
    EXPECT_EQ(loaded->tensors[i].name, fixture.checkpoint.tensors[i].name);
    EXPECT_TRUE(BitwiseEqual(loaded->tensors[i].value,
                             fixture.checkpoint.tensors[i].value))
        << "tensor " << loaded->tensors[i].name << " changed in transit";
  }
}

TEST(CheckpointTest, RestoredModelReproducesLogitsAndAccuracyExactly) {
  TrainedFixture fixture;
  Result<Checkpoint> loaded = Deserialize(Serialize(fixture.checkpoint));
  ASSERT_TRUE(loaded.ok());

  // A *differently seeded* fresh model: every parameter starts different,
  // so agreement below can only come from the checkpoint.
  Rng other_rng(999);
  ModelPtr restored =
      std::move(
          CreateModel(loaded->model_name, fixture.dataset,
                      loaded->model_config, &other_rng))
          .value();
  ASSERT_TRUE(LoadCheckpointIntoModel(*loaded, restored.get()).ok());

  const Matrix restored_logits =
      restored->Forward(/*training=*/false, &other_rng).value();
  EXPECT_TRUE(BitwiseEqual(restored_logits, fixture.logits))
      << "restored logits are not bitwise identical";
  EXPECT_EQ(Accuracy(restored_logits, fixture.dataset.labels,
                     fixture.dataset.test_idx),
            Accuracy(fixture.logits, fixture.dataset.labels,
                     fixture.dataset.test_idx));
}

TEST(CheckpointTest, FileRoundTripIsExact) {
  TrainedFixture fixture;
  const std::string path = testing::TempDir() + "/ckpt_roundtrip.bin";
  ASSERT_TRUE(SaveCheckpoint(fixture.checkpoint, path).ok());
  Result<Checkpoint> loaded = TryLoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->tensors.size(), fixture.checkpoint.tensors.size());
  for (size_t i = 0; i < loaded->tensors.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(loaded->tensors[i].value,
                             fixture.checkpoint.tensors[i].value));
  }
}

TEST(CheckpointTest, SingleCorruptedPayloadByteIsRejectedByCrc) {
  TrainedFixture fixture;
  std::string bytes = Serialize(fixture.checkpoint);
  ASSERT_GT(bytes.size(), 24u);
  // Flip one bit in the middle of the payload (well past the header).
  const size_t victim = 24 + (bytes.size() - 24) / 2;
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x01);
  Result<Checkpoint> loaded = Deserialize(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos)
      << "CRC rejection should say so: " << loaded.status().ToString();
}

TEST(CheckpointTest, EveryTruncationIsRejectedNotCrashed) {
  TrainedFixture fixture;
  const std::string bytes = Serialize(fixture.checkpoint);
  for (size_t len : {size_t{0}, size_t{4}, size_t{12}, size_t{20},
                     size_t{24}, bytes.size() / 2, bytes.size() - 1}) {
    Result<Checkpoint> loaded = Deserialize(bytes.substr(0, len));
    EXPECT_FALSE(loaded.ok()) << "prefix of " << len << " bytes accepted";
  }
}

TEST(CheckpointTest, BadMagicIsRejected) {
  TrainedFixture fixture;
  std::string bytes = Serialize(fixture.checkpoint);
  bytes[0] = 'X';
  Result<Checkpoint> loaded = Deserialize(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);
}

TEST(CheckpointTest, UnsupportedVersionIsRejected) {
  TrainedFixture fixture;
  std::string bytes = Serialize(fixture.checkpoint);
  bytes[8] = 9;  // version field (little-endian u32 at offset 8)
  Result<Checkpoint> loaded = Deserialize(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

TEST(CheckpointTest, LimitsAreEnforcedBeforeAllocation) {
  TrainedFixture fixture;
  const std::string bytes = Serialize(fixture.checkpoint);

  CheckpointLimits tiny_payload;
  tiny_payload.max_payload_bytes = 16;
  EXPECT_FALSE(Deserialize(bytes, tiny_payload).ok());

  CheckpointLimits few_tensors;
  few_tensors.max_tensors = 1;
  EXPECT_FALSE(Deserialize(bytes, few_tensors).ok());

  CheckpointLimits short_names;
  short_names.max_name_bytes = 2;
  EXPECT_FALSE(Deserialize(bytes, short_names).ok());

  CheckpointLimits small_tensors;
  small_tensors.max_tensor_entries = 4;
  EXPECT_FALSE(Deserialize(bytes, small_tensors).ok());

  CheckpointLimits few_patterns;
  few_patterns.max_patterns = 1;
  EXPECT_FALSE(Deserialize(bytes, few_patterns).ok());
}

TEST(CheckpointTest, LoadIntoMismatchedModelFailsWithShapeError) {
  TrainedFixture fixture;
  Result<Checkpoint> loaded = Deserialize(Serialize(fixture.checkpoint));
  ASSERT_TRUE(loaded.ok());
  ModelConfig other = fixture.config;
  other.hidden = 8;  // different classifier shapes
  Rng rng(1);
  ModelPtr mismatched =
      std::move(CreateModel("ADPA", fixture.dataset, other, &rng)).value();
  const Status status = LoadCheckpointIntoModel(*loaded, mismatched.get());
  ASSERT_FALSE(status.ok());
}

TEST(CheckpointTest, DatasetHashIsContentSensitive) {
  Dataset a = Tiny(3);
  const uint64_t base = DatasetContentHash(a);
  Dataset b = Tiny(3);
  EXPECT_EQ(DatasetContentHash(b), base) << "hash must be deterministic";
  b.features.At(0, 0) += 1.0f;
  EXPECT_NE(DatasetContentHash(b), base);
  Dataset c = Tiny(3);
  c.labels[0] = (c.labels[0] + 1) % c.num_classes;
  EXPECT_NE(DatasetContentHash(c), base);
}

TEST(PropagationCacheTest, RoundTripPreservesKeyAndBlocksExactly) {
  Dataset ds = Tiny(11);
  ModelConfig config;
  const std::vector<DirectedPattern> patterns = EnumeratePatterns(2);
  PropagationCache cache;
  cache.key = MakePropagationCacheKey(ds, config, patterns);
  cache.blocks = ComputePropagationBlocks(ds, config, patterns);

  std::ostringstream out;
  ASSERT_TRUE(SavePropagationCacheToStream(cache, out).ok());
  std::istringstream in(out.str());
  Result<PropagationCache> loaded = TryLoadPropagationCacheFromStream(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->key == cache.key);
  ASSERT_EQ(loaded->blocks.size(), cache.blocks.size());
  for (size_t l = 0; l < cache.blocks.size(); ++l) {
    ASSERT_EQ(loaded->blocks[l].size(), cache.blocks[l].size());
    for (size_t g = 0; g < cache.blocks[l].size(); ++g) {
      EXPECT_TRUE(BitwiseEqual(loaded->blocks[l][g], cache.blocks[l][g]));
    }
  }
}

TEST(PropagationCacheTest, KeyTracksEveryPropagationInput) {
  Dataset ds = Tiny(12);
  ModelConfig config;
  const std::vector<DirectedPattern> patterns = EnumeratePatterns(2);
  const PropagationCacheKey base =
      MakePropagationCacheKey(ds, config, patterns);

  ModelConfig other = config;
  other.conv_r = 0.25;
  EXPECT_FALSE(MakePropagationCacheKey(ds, other, patterns) == base);
  other = config;
  other.propagation_steps = 5;
  EXPECT_FALSE(MakePropagationCacheKey(ds, other, patterns) == base);
  other = config;
  other.propagation_self_loops = !other.propagation_self_loops;
  EXPECT_FALSE(MakePropagationCacheKey(ds, other, patterns) == base);

  Dataset changed = Tiny(12);
  changed.features.At(1, 1) += 0.5f;
  EXPECT_FALSE(MakePropagationCacheKey(changed, config, patterns) == base);

  EXPECT_FALSE(MakePropagationCacheKey(ds, config, EnumeratePatterns(1)) ==
               base);
}

TEST(CheckpointTest, RestoreWithRecordedPatternsSkipsRederivation) {
  // Correlation-selected pattern subsets (select_patterns > 0) depend on
  // the train split, which DatasetContentHash does not cover. The restore
  // path must install the checkpoint's recorded set, not re-derive one.
  Dataset dataset = Tiny(17);
  ModelConfig config;
  config.hidden = 16;
  config.pattern_order = 2;
  config.select_patterns = 2;
  Rng rng(7);
  ModelPtr model =
      std::move(CreateModel("ADPA", dataset, config, &rng)).value();
  TrainConfig train_config;
  train_config.max_epochs = 2;
  train_config.patience = 0;
  TrainModel(model.get(), dataset, train_config, &rng);
  const Matrix logits = model->Forward(/*training=*/false, &rng).value();
  const Checkpoint checkpoint =
      MakeCheckpoint(*model, "ADPA", dataset, config, train_config);
  ASSERT_EQ(checkpoint.patterns.size(), 2u);

  // Same dataset content (hash unchanged), different labeled subset: any
  // re-derived selection is untrustworthy here, the recorded one is not.
  std::reverse(dataset.train_idx.begin(), dataset.train_idx.end());
  dataset.train_idx.resize(dataset.train_idx.size() / 2);
  Rng other_rng(999);
  ModelPtr restored = std::move(CreateModelWithPatterns(
                                    "ADPA", dataset, checkpoint.model_config,
                                    checkpoint.patterns, &other_rng))
                          .value();
  ASSERT_TRUE(LoadCheckpointIntoModel(checkpoint, restored.get()).ok());
  const auto* adpa = dynamic_cast<const AdpaModel*>(restored.get());
  ASSERT_NE(adpa, nullptr);
  EXPECT_EQ(adpa->patterns(), checkpoint.patterns);
  const Matrix restored_logits =
      restored->Forward(/*training=*/false, &other_rng).value();
  EXPECT_TRUE(BitwiseEqual(restored_logits, logits))
      << "restored model does not propagate with the recorded patterns";
}

/// A syntactically valid cache container whose block-count header claims
/// `steps` x `per_step` blocks (with a minimal key and no block data).
std::string HostileCacheBytes(uint32_t steps, uint32_t per_step) {
  std::ostringstream body_stream;
  BinaryWriter body(&body_stream);
  body.WriteU64(0);    // graph_hash
  body.WriteU64(0);    // feature_hash
  body.WriteF64(0.5);  // conv_r
  body.WriteU8(0);     // self_loops
  body.WriteU8(1);     // initial_residual
  body.WriteI32(1);    // key steps
  body.WriteU32(0);    // no patterns
  body.WriteU32(steps);
  body.WriteU32(per_step);
  const std::string payload = body_stream.str();
  std::ostringstream out;
  BinaryWriter header(&out);
  header.WriteBytes("ADPAPCHE", 8);
  header.WriteU32(1);  // format version
  header.WriteU32(Crc32(payload.data(), payload.size()));
  header.WriteU64(payload.size());
  header.WriteBytes(payload.data(), payload.size());
  return out.str();
}

TEST(PropagationCacheTest, HostileStepCountWithZeroPerStepIsRejected) {
  // per_step == 0 must not bypass the block-count ceiling: `steps` alone
  // would otherwise drive a multi-gigabyte resize before any block read.
  for (uint32_t steps : {uint32_t{4097}, uint32_t{0xFFFFFFFF}}) {
    std::istringstream in(HostileCacheBytes(steps, /*per_step=*/0));
    Result<PropagationCache> loaded = TryLoadPropagationCacheFromStream(in);
    ASSERT_FALSE(loaded.ok()) << "steps=" << steps << " accepted";
    EXPECT_NE(loaded.status().message().find("block count"),
              std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(PropagationCacheTest, CacheErrorsAreNotReportedAsCheckpointErrors) {
  std::istringstream in(std::string("XXXXXXXX") + std::string(24, '\0'));
  Result<PropagationCache> loaded = TryLoadPropagationCacheFromStream(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("malformed propagation cache"),
            std::string::npos)
      << loaded.status().ToString();
  EXPECT_EQ(loaded.status().message().find("malformed checkpoint"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(PropagationCacheTest, CorruptedCacheIsRejected) {
  Dataset ds = Tiny(13);
  ModelConfig config;
  const std::vector<DirectedPattern> patterns = EnumeratePatterns(1);
  PropagationCache cache;
  cache.key = MakePropagationCacheKey(ds, config, patterns);
  cache.blocks = ComputePropagationBlocks(ds, config, patterns);
  std::ostringstream out;
  ASSERT_TRUE(SavePropagationCacheToStream(cache, out).ok());
  std::string bytes = out.str();
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  std::istringstream in(bytes);
  EXPECT_FALSE(TryLoadPropagationCacheFromStream(in).ok());
}

TEST(PropagationCacheTest, CheckpointMagicIsNotACacheMagic) {
  // The two containers must not be confusable.
  TrainedFixture fixture;
  const std::string bytes = Serialize(fixture.checkpoint);
  std::istringstream in(bytes);
  EXPECT_FALSE(TryLoadPropagationCacheFromStream(in).ok());
}

}  // namespace
}  // namespace adpa
