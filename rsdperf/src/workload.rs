//! The three workloads: what each builds, trains and serves.

use std::sync::Arc;
use std::time::Instant;

use rsd_bench::{table3_configs, Scale};
use rsd_dataset::{io, DatasetBuilder, DatasetSplits, Rsd15k, SplitConfig};
use rsd_eval::ConfusionMatrix;
use rsd_models::{
    BenchData, BiLstmBaseline, EvalOutcome, HiGruBaseline, PlmBaseline, ScoringModel, ServeModel,
    XgboostBaseline, XgboostConfig,
};
use rsd_obs::Span;
use rsd_serve::ServeConfig;

use crate::host::HostSpeed;
use crate::stats::Fnv;
use crate::traffic::Traffic;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale corpus served by the table-3 GBDT artifact.
    ServeGbdt,
    /// Paper-scale corpus served by the frozen int8 DeBERTa.
    ServeInt8,
    /// Small-scale Table III (all five baselines), then its XGBoost
    /// artifact serving the small corpus.
    TrainTable3,
}

/// Per-workload sizing of the serve phase.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Requests replayed per saturation step (about a second's worth at
    /// capacity).
    pub saturation_requests: usize,
    /// Requests replayed per reference-rate step of a timed run (the
    /// first ones of the traffic); the traced run's one reference step
    /// replays twice as many, enough to read a p99 from.
    pub reference_requests: usize,
    /// The fixed rate, well below capacity, that `serve_p50_ms` is
    /// measured at, requests/s.
    pub reference_rate: f64,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeGbdt,
        Workload::ServeInt8,
        Workload::TrainTable3,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeGbdt => "serve_gbdt",
            Workload::ServeInt8 => "serve_int8",
            Workload::TrainTable3 => "train_table3",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Serve-phase sizing.
    pub fn serve_spec(self) -> ServeSpec {
        match self {
            // GBDT scoring is cheap (~70 µs a request): capacity is
            // 14-28k/s on two cores, so a saturation step of 8,000
            // requests lasts 0.3-0.6 s. A reference step of 1,500 lasts
            // 0.75 s at 2,000/s.
            Workload::ServeGbdt | Workload::TrainTable3 => ServeSpec {
                saturation_requests: 8_000,
                reference_requests: 1_500,
                reference_rate: 2_000.0,
            },
            // Int8 DeBERTa scoring is ~0.4-0.9 ms a request on one core:
            // capacity is ~2-4.5k/s, so 2,000 requests saturate the
            // service for 0.5-1 s; 500 last 1 s at 500/s.
            Workload::ServeInt8 => ServeSpec {
                saturation_requests: 2_000,
                reference_requests: 500,
                reference_rate: 500.0,
            },
        }
    }

    /// The scoring backend the workload serves with.
    pub fn serve_model(self) -> ServeModel {
        match self {
            Workload::ServeInt8 => ServeModel::PlmInt8,
            Workload::ServeGbdt | Workload::TrainTable3 => ServeModel::Gbdt,
        }
    }
}

/// One dataset build and what it digests to.
pub struct Built {
    /// The dataset.
    pub dataset: Rsd15k,
    /// The unlabelled pretraining pool.
    pub unlabeled: Vec<String>,
    /// `io::to_jsonl` digest of the dataset.
    pub digest: u64,
}

/// Run the `DatasetBuilder` at `scale`, returning the build and its
/// wall-clock in seconds (digesting is not timed).
pub fn build(scale: Scale, seed: u64) -> (Built, f64) {
    let t = Instant::now();
    let (dataset, unlabeled, _report) = {
        let _span = Span::enter("rsdperf.build");
        DatasetBuilder::new(scale.build_config(seed))
            .build_with_pool()
            .expect("dataset build")
    };
    let secs = t.elapsed().as_secs_f64();
    let mut h = Fnv::default();
    io::to_jsonl(&dataset, &mut h).expect("digest writes cannot fail");
    (
        Built {
            dataset,
            unlabeled,
            digest: h.0,
        },
        secs,
    )
}

/// Everything one set-up produced.
pub struct Setup {
    /// The training corpus (small scale for the PLM and Table III,
    /// paper scale for the GBDT server).
    pub train: Built,
    /// User-disjoint splits of `train`.
    pub splits: DatasetSplits,
    /// The serving artifact.
    pub model: Arc<ScoringModel>,
    /// The serving traffic.
    pub traffic: Traffic,
    /// Digest of the paper-scale traffic corpus when it is not `train`.
    pub traffic_build_digest: Option<u64>,
    /// Set-up wall-clock, s.
    pub setup_s: f64,
    /// `DatasetBuilder` wall-clock (both builds for `serve_int8`), s.
    pub build_s: f64,
    /// `DatasetSplits::new` wall-clock, s.
    pub splits_s: f64,
    /// Fitting the serving model (`ScoringModel::fit`, or the PLM fit
    /// plus export), s.
    pub fit_s: f64,
    /// The PLM export alone (`ScoringModel::from_plm`), s.
    pub export_s: f64,
}

impl Setup {
    /// Borrow the training corpus as [`BenchData`].
    pub fn data(&self, seed: u64) -> BenchData<'_> {
        BenchData {
            dataset: &self.train.dataset,
            splits: &self.splits,
            unlabeled: &self.train.unlabeled,
            seed,
        }
    }
}

/// Seed of the small-scale training corpus (the `RSD_SEED` default).
pub const SMALL_CORPUS_SEED: u64 = 2026;

/// The build seed of the corpus a workload trains on. Small-scale
/// training (Table III, the PLM behind `serve_int8`) always uses the same
/// corpus and split, and `seed` becomes the model seed (initialisation,
/// shuffling, dropout, subsampling): between seeds of a 48-user corpus
/// the training work itself varied by up to 30 %, which would swamp any
/// bound on `train_s`. Paper-scale builds vary with `seed`.
pub fn training_corpus_seed(scale: Scale, seed: u64) -> u64 {
    match scale {
        Scale::Small => SMALL_CORPUS_SEED,
        Scale::Paper | Scale::Mid => seed,
    }
}

/// Build, split and fit everything the workload needs before its first
/// timed request or baseline.
pub fn setup(workload: Workload, seed: u64) -> Setup {
    let t0 = Instant::now();
    let spec = workload.serve_spec();
    let (traffic_corpus, train_scale) = match workload {
        Workload::ServeGbdt => (None, Scale::Paper),
        Workload::ServeInt8 => (Some(build(Scale::Paper, seed)), Scale::Small),
        Workload::TrainTable3 => (None, Scale::Small),
    };
    let mut build_s = traffic_corpus.as_ref().map_or(0.0, |(_, s)| *s);
    let corpus_seed = training_corpus_seed(train_scale, seed);
    let (train, train_build_s) = build(train_scale, corpus_seed);
    build_s += train_build_s;

    let t = Instant::now();
    let splits = {
        let _span = Span::enter("rsdperf.splits");
        DatasetSplits::new(
            &train.dataset,
            SplitConfig {
                seed: corpus_seed,
                ..Default::default()
            },
        )
        .expect("splits")
    };
    let splits_s = t.elapsed().as_secs_f64();

    let cfgs = table3_configs(train_scale);
    let data = BenchData {
        dataset: &train.dataset,
        splits: &splits,
        unlabeled: &train.unlabeled,
        seed,
    };
    let t = Instant::now();
    let (model, export_s) = match workload.serve_model() {
        ServeModel::Gbdt => {
            let _span = Span::enter("rsdperf.gbdt_fit");
            (
                ScoringModel::fit(&serving_gbdt_config(), &data).expect("gbdt fit"),
                0.0,
            )
        }
        model => {
            let fitted = {
                let _span = Span::enter("rsdperf.plm_fit");
                PlmBaseline::new(cfgs.deberta).fit(&data).expect("plm fit")
            };
            let t = Instant::now();
            let _span = Span::enter("rsdperf.plm_export");
            let scoring = ScoringModel::from_plm(&fitted, splits.config.window, model.quantized());
            (scoring, t.elapsed().as_secs_f64())
        }
    };
    let fit_s = t.elapsed().as_secs_f64();

    let traffic_source = traffic_corpus.as_ref().map_or(&train, |(b, _)| b);
    let traffic = Traffic::replay(
        &traffic_source.dataset,
        spec.saturation_requests.max(2 * spec.reference_requests),
    );
    let traffic_build_digest = traffic_corpus.as_ref().map(|(b, _)| b.digest);
    Setup {
        model: Arc::new(model),
        traffic,
        traffic_build_digest,
        splits,
        train,
        setup_s: t0.elapsed().as_secs_f64(),
        build_s,
        splits_s,
        fit_s,
        export_s,
    }
}

/// The table-3 XGBoost configuration with early stopping replaced by a
/// fixed round count, so every seed fits, and then scores with, the same
/// number of trees: fit and predict cost track the code, not where a
/// seed's validation loss happened to flatten.
pub fn serving_gbdt_config() -> XgboostConfig {
    let mut cfg = XgboostConfig::default();
    cfg.booster.n_rounds = SERVING_GBDT_ROUNDS;
    cfg.booster.early_stopping = 0;
    cfg
}

/// Boosting rounds of the serving GBDT.
const SERVING_GBDT_ROUNDS: usize = 40;

/// One Table III baseline: name, outcome, wall-clock (s).
pub struct BaselineRun {
    /// Baseline name as in the table (`xgboost`, ...).
    pub name: &'static str,
    /// Macro-F1 on the test split.
    pub macro_f1: f64,
    /// Wall-clock of the `run` call, s.
    pub secs: f64,
    /// The host's speed factor over the call (see [`HostSpeed`]).
    pub speed: f64,
}

/// Small-scale Table III: the five `*Baseline::run` calls with the
/// table-3 binary's configurations, each under its own span and
/// between probes of `speed`.
pub fn table3(data: &BenchData<'_>, speed: &mut HostSpeed) -> Vec<BaselineRun> {
    let cfgs = table3_configs(Scale::Small);
    let mut runs = Vec::new();
    let mut timed = |name: &'static str, label: &'static str, f: &dyn Fn() -> EvalOutcome| {
        let ((outcome, secs), factor) = speed.measure(|| {
            let t = Instant::now();
            let _span = Span::enter(label);
            let outcome = f();
            (outcome, t.elapsed().as_secs_f64())
        });
        runs.push(BaselineRun {
            name,
            macro_f1: outcome.report.macro_f1,
            secs,
            speed: factor,
        });
    };
    timed("xgboost", "rsdperf.table3.xgboost", &|| {
        XgboostBaseline::new(cfgs.xgboost.clone())
            .run(data)
            .expect("xgboost")
    });
    timed("bilstm", "rsdperf.table3.bilstm", &|| {
        BiLstmBaseline::new(cfgs.bilstm.clone())
            .run(data)
            .expect("bilstm")
    });
    timed("higru", "rsdperf.table3.higru", &|| {
        HiGruBaseline::new(cfgs.higru.clone())
            .run(data)
            .expect("higru")
    });
    timed("roberta", "rsdperf.table3.roberta", &|| {
        PlmBaseline::new(cfgs.roberta.clone())
            .run(data)
            .expect("roberta")
    });
    timed("deberta", "rsdperf.table3.deberta", &|| {
        PlmBaseline::new(cfgs.deberta.clone())
            .run(data)
            .expect("deberta")
    });
    runs
}

/// Macro-F1 of the serving model on the test split of its training
/// corpus.
pub fn test_macro_f1(setup: &Setup) -> f64 {
    let preds = setup
        .model
        .score_windows(&setup.train.dataset, &setup.splits.test);
    let truth: Vec<usize> = setup.splits.test.iter().map(|w| w.label.index()).collect();
    macro_f1(&truth, &preds)
}

/// Macro-F1 of `pred` against `truth` over the four risk levels.
pub fn macro_f1(truth: &[usize], pred: &[usize]) -> f64 {
    ConfusionMatrix::from_labels(rsd_corpus::RiskLevel::COUNT, truth, pred)
        .expect("class indices in range")
        .macro_f1()
}

/// The serving configuration every workload uses: the service defaults
/// with the workload's backend named.
pub fn serve_config(workload: Workload) -> ServeConfig {
    ServeConfig {
        model: workload.serve_model(),
        ..ServeConfig::default()
    }
}
