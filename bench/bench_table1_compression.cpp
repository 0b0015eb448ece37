// Reproduces Table I: PER versus compression rate for BSP at ten operating
// points, against the five baseline compression schemes (ESE, C-LSTM x2,
// BBS, Wang, E-RNN), all trained on the same synthetic TIMIT-substitute
// corpus with the same scaled GRU.
//
// Substitutions vs the paper: TIMIT -> synthetic
// corpus, 9.6M-param GRU -> scaled GRU (2x96, ~150k weights). A 150k-weight
// model cannot survive a literal 301x compression (that would leave ~500
// weights), so each paper operating point is mapped to a capacity-scaled
// compression rate (~1/10th): paper 10x -> ours 2x, ..., paper 301x ->
// ours 32x. The reproduction targets are the *relationships*:
//   (i)   BSP holds baseline PER at moderate compression,
//   (ii)  PER degrades monotonically (within noise) as compression grows,
//   (iii) at matched ~8x compression, fine-grained schemes (BSP, ESE, BBS)
//         lose far less accuracy than coarse ones (Wang, block-circulant).
#include <cstdio>

#include "baselines/bbs.hpp"
#include "baselines/clstm.hpp"
#include "baselines/ernn.hpp"
#include "baselines/ese.hpp"
#include "baselines/wang.hpp"
#include "core/bsp.hpp"
#include "hw/paper_reference.hpp"
#include "hw/timer.hpp"
#include "speech/corpus.hpp"
#include "speech/per.hpp"
#include "train/trainer.hpp"
#include "util/report.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace rtmobile {
namespace {

/// Capacity-scaled sweep: ours[i] plays the role of the paper's point i.
struct OperatingPoint {
  double our_cr;    // compression rate on the scaled model
  double paper_cr;  // the Table I row it corresponds to
};
constexpr OperatingPoint kSweep[] = {
    {1.0, 1.0},  {2.0, 10.0},  {3.0, 19.0},   {4.0, 29.0},  {6.0, 43.0},
    {8.0, 80.0}, {12.0, 103.0}, {16.0, 153.0}, {24.0, 245.0}, {32.0, 301.0},
};

/// Maximum column rate the block geometry supports before whole blocks
/// round to zero; the remainder of the budget comes from row pruning,
/// exactly like BSP step 2.
constexpr double kMaxColRate = 8.0;

struct Experiment {
  speech::Corpus corpus;
  SpeechModel dense_model;
  double dense_per = 0.0;

  Experiment() : corpus(make_corpus()), dense_model(make_model()) {}

  static speech::Corpus make_corpus() {
    speech::CorpusConfig config;
    config.num_train_utterances = 48;
    config.num_test_utterances = 16;
    config.min_phones = 5;
    config.max_phones = 10;
    config.feature_noise = 0.55;
    config.seed = 7;
    return speech::SyntheticTimit(config).generate();
  }

  static SpeechModel make_model() {
    ModelConfig config;
    config.input_dim = 39;
    config.hidden_dim = 96;
    config.num_layers = 2;
    config.num_classes = 39;
    return SpeechModel(config);
  }

  void pretrain() {
    Rng rng(11);
    dense_model.init(rng);
    Trainer trainer(dense_model);
    Adam adam(4e-3);
    TrainConfig config;
    config.epochs = 12;
    config.lr_decay = 0.92;
    trainer.train(config, corpus.train, adam, rng);
    dense_per = speech::corpus_per(dense_model, corpus.test);
  }
};

BspConfig bsp_config_for(double cr) {
  const double col_rate = std::min(cr, kMaxColRate);
  BspConfig config;
  config.num_r = 8;
  config.num_c = 4;
  config.col_keep_fraction = 1.0 / col_rate;
  config.row_keep_fraction = cr > col_rate ? col_rate / cr : 1.0;
  config.rho = 5e-2;
  config.admm_rounds_step1 = 2;
  config.admm_rounds_step2 = config.row_keep_fraction < 1.0 ? 1 : 0;
  config.epochs_per_round = 1;
  config.retrain_epochs = 6;
  config.learning_rate = 2e-3;
  config.retrain_learning_rate = 2e-3;
  config.prune_fc = false;
  return config;
}

}  // namespace
}  // namespace rtmobile

int main() {
  using namespace rtmobile;

  std::printf("== Table I (compression rate vs PER) ==\n");
  std::printf(
      "Scaled reproduction on the synthetic TIMIT substitute\n"
      "(src/speech/corpus.hpp). Each row maps a Table I operating point\n"
      "onto a capacity-scaled compression rate; 'paper' columns are the\n"
      "published TIMIT numbers. Compare degradation *shape*, not absolute\n"
      "PER.\n\n");

  WallTimer total_timer;
  Experiment experiment;
  experiment.pretrain();
  std::printf("dense baseline: PER %.2f%% (paper: %.2f%% on TIMIT)\n\n",
              experiment.dense_per, paper::kBaselinePer);

  Table table({"Method", "CR(ours)", "CR(achieved)", "Para.", "PER pruned",
               "Degrad.", "CR(paper)", "Degrad.(paper)"});
  JsonReport report;

  // --- BSP across the capacity-scaled sweep -------------------------------
  for (const auto& point : kSweep) {
    SpeechModel model = experiment.dense_model;  // copy of the pretrained
    double pruned_per = experiment.dense_per;
    double achieved_rate = 1.0;
    double params_m =
        static_cast<double>(model.nonzero_param_count()) / 1e6;
    if (point.our_cr > 1.0) {
      BspPruner pruner(bsp_config_for(point.our_cr));
      Rng rng(23 + static_cast<std::uint64_t>(point.our_cr));
      const BspResult result =
          pruner.prune(model, experiment.corpus.train, rng);
      pruned_per = speech::corpus_per(model, experiment.corpus.test);
      achieved_rate = result.stats.overall_rate();
      params_m = result.stats.params_millions();
    }
    const double degradation = pruned_per - experiment.dense_per;
    const paper::Table1BspRow* paper_row = nullptr;
    for (const auto& row : paper::table1_bsp()) {
      if (row.compression_rate == point.paper_cr) paper_row = &row;
    }
    const double paper_degradation =
        paper_row ? paper_row->per_pruned - paper_row->per_baseline : 0.0;
    table.add_row({"BSP (ours)", format_double(point.our_cr, 0) + "x",
                   format_double(achieved_rate, 1) + "x",
                   format_si(params_m * 1e6, 2),
                   format_double(pruned_per, 2),
                   format_double(degradation, 2),
                   format_double(point.paper_cr, 0) + "x",
                   format_double(paper_degradation, 2)});
    JsonRecord record;
    record.set("experiment", "table1");
    record.set("method", "BSP");
    record.set("compression_rate_ours", point.our_cr);
    record.set("compression_rate_achieved", achieved_rate);
    record.set("compression_rate_paper", point.paper_cr);
    record.set("per_baseline", experiment.dense_per);
    record.set("per_pruned", pruned_per);
    record.set("per_degradation", degradation);
    record.set("per_degradation_paper", paper_degradation);
    report.add(record);
  }
  table.add_separator();

  // --- Baselines at their published operating points ---------------------
  const auto run_baseline = [&](const char* label, double target_rate,
                                double paper_rate, double paper_degradation,
                                auto&& compress) {
    SpeechModel model = experiment.dense_model;
    Rng rng(1234);
    const baselines::BaselineOutcome outcome = compress(model, rng);
    const double pruned_per =
        speech::corpus_per(model, experiment.corpus.test);
    const double degradation = pruned_per - experiment.dense_per;
    table.add_row({label, format_double(target_rate, 0) + "x",
                   format_double(outcome.compression_rate(), 1) + "x",
                   format_si(outcome.params_millions() * 1e6, 2),
                   format_double(pruned_per, 2),
                   format_double(degradation, 2),
                   format_double(paper_rate, 0) + "x",
                   format_double(paper_degradation, 2)});
    JsonRecord record;
    record.set("experiment", "table1");
    record.set("method", label);
    record.set("compression_rate_ours", target_rate);
    record.set("compression_rate_achieved", outcome.compression_rate());
    record.set("per_pruned", pruned_per);
    record.set("per_degradation", degradation);
    record.set("per_degradation_paper", paper_degradation);
    report.add(record);
  };

  run_baseline("ESE", 8.0, 8.0, 0.30, [&](SpeechModel& m, Rng& rng) {
    baselines::EseConfig config;
    config.keep_fraction = 0.125;
    config.rho = 5e-2;
    config.admm_rounds = 2;
    config.retrain_epochs = 6;
    config.retrain_learning_rate = 2e-3;
    return baselines::EsePruner(config).compress(
        m, experiment.corpus.train, rng);
  });
  run_baseline("C-LSTM", 8.0, 8.0, 0.42, [&](SpeechModel& m, Rng& rng) {
    baselines::ClstmConfig config;
    config.block_size = 8;
    config.projected_epochs = 16;
    config.final_epochs = 4;
    config.learning_rate = 3e-3;
    return baselines::ClstmCompressor(config).compress(
        m, experiment.corpus.train, rng);
  });
  run_baseline("C-LSTM", 16.0, 16.0, 1.33, [&](SpeechModel& m, Rng& rng) {
    baselines::ClstmConfig config;
    config.block_size = 16;
    config.projected_epochs = 16;
    config.final_epochs = 4;
    config.learning_rate = 3e-3;
    return baselines::ClstmCompressor(config).compress(
        m, experiment.corpus.train, rng);
  });
  run_baseline("BBS", 8.0, 8.0, 0.25, [&](SpeechModel& m, Rng& rng) {
    baselines::BbsConfig config;
    config.bank_size = 16;
    config.keep_per_bank = 2;
    config.rho = 5e-2;
    config.admm_rounds = 2;
    config.retrain_epochs = 6;
    config.retrain_learning_rate = 2e-3;
    return baselines::BbsPruner(config).compress(
        m, experiment.corpus.train, rng);
  });
  run_baseline("Wang", 4.0, 4.0, 0.91, [&](SpeechModel& m, Rng& rng) {
    baselines::WangConfig config;
    config.col_keep_fraction = 0.5;
    config.row_keep_fraction = 0.5;
    config.retrain_epochs = 6;
    config.retrain_learning_rate = 2e-3;
    return baselines::WangPruner(config).compress(
        m, experiment.corpus.train, rng);
  });
  run_baseline("E-RNN", 8.0, 8.0, 0.18, [&](SpeechModel& m, Rng& rng) {
    baselines::ErnnConfig config;
    config.block_size = 8;
    config.rho = 5e-2;
    config.admm_rounds = 2;
    config.finetune_epochs = 6;
    config.finetune_learning_rate = 2e-3;
    return baselines::ErnnCompressor(config).compress(
        m, experiment.corpus.train, rng);
  });

  std::printf("%s\n", table.to_string().c_str());
  std::printf("total harness time: %.1f s\n",
              total_timer.elapsed_us() / 1e6);
  report.write_file("table1.json");
  return 0;
}
