//! `rsdperf` — the repository benchmark: dataset build time, Table III
//! training time, serving capacity and open-loop serving latency, with
//! per-layer timings from a separate traced run.
//!
//! ```text
//! rsdperf --workload <serve_gbdt|serve_int8|train_table3> --seed <n> \
//!         --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is non-zero when
//! any correctness check failed. See `README.md` beside this file.

mod digests;
mod host;
mod serve;
mod stats;
mod traffic;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use host::HostSpeed;
use rsd_bench::Scale;
use serve::Step;
use stats::Summary;
use workload::{Setup, Workload};

/// Seed held out from tuning; a claimed gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 9_001;

/// A timed run makes at least `MIN_ROUNDS` rounds and goes on until it
/// has run `--seconds`. A round is a block of set-ups (at least one,
/// more while the block has taken under `SETUP_BLOCK_S`), then
/// `SATURATION_STEPS` saturation steps, each followed by
/// `REFERENCE_STEPS` reference-rate steps (each step starts a fresh
/// service, and a step's p50 varies by up to 25 % from one fresh service
/// to the next, so more, shorter reference steps read it more steadily).
/// Every metric pools its samples over all rounds, so each one samples
/// the host across the whole run rather than during one phase of it: on
/// a shared host, speed swings by up to 1.8x from one second to the
/// next.
const MIN_ROUNDS: usize = 3;
const SETUP_BLOCK_S: f64 = 1.0;
const SATURATION_STEPS: usize = 2;
const REFERENCE_STEPS: usize = 2;

/// End-to-end metrics a timed run prints, as `BENCHMARK.json` lists them.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "build_s",
    "train_s",
    "serve_capacity_qps",
    "serve_p50_ms",
    "peak_rss_mb",
];

/// Per-layer metrics a traced run prints, as `BENCHMARK.json` lists them.
const PER_LAYER: [&str; 40] = [
    "corpus.generate_s",
    "textproc.preprocess_s",
    "annotation.campaign_s",
    "dataset.splits_s",
    "dataset.window_apply_us.p50",
    "dataset.window_apply_us.p99",
    "dataset.window_len_ge2_share",
    "dataset.window_len_mean",
    "traffic.distinct_users",
    "traffic.tokens_per_post_mean",
    "features.transform_stream_us.p50",
    "features.transform_stream_us.p99",
    "gbdt.fit_s",
    "gbdt.predict_row_us.p50",
    "gbdt.predict_row_us.p99",
    "models.xgboost_s",
    "models.bilstm_s",
    "models.higru_s",
    "models.roberta_s",
    "models.deberta_s",
    "models.plm_fit_s",
    "models.plm_export_s",
    "models.plm_encode_stream_us.p50",
    "models.plm_encode_stream_us.p99",
    "models.train_self_s",
    "nn.matmul_nt_s",
    "nn.plm_score_int8_us.p50",
    "nn.plm_score_int8_us.p99",
    "serve.submit_us.p50",
    "serve.submit_us.p99",
    "serve.blocked_submit_share",
    "serve.batch_mean",
    "serve.backlog_max",
    "serve_p99_ms",
    "gen.lateness_ms.p99",
    "gen.sent",
    "gen.failed",
    "trace.overhead_share",
    "train_macro_f1",
    "serve_macro_f1",
];

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run the untraced set-up phase once and print its
    /// wall-clock (the traced run's overhead baseline).
    probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut probe) =
        (None, None, None, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--probe" => probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        probe,
    })
}

/// Pin the environment the program reads: no stray `RSD_*` knob, the
/// thread budget at the host's core count, and telemetry off unless
/// this is the traced run. Runs before any thread exists.
fn pin_environment(trace: bool) -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    for (key, _) in std::env::vars() {
        if key.starts_with("RSD_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("RSD_THREADS", nproc.to_string());
    if trace {
        std::env::set_var("RSD_OBS_PROFILE", "1");
    }
    nproc
}

/// Correctness findings; any one fails the run.
#[derive(Default)]
struct Checks {
    failures: Vec<String>,
}

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("rsdperf: CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    /// Builds repeat and match the recorded digest for this seed.
    fn build(&mut self, scale: &str, seed: u64, digests: &[u64]) {
        let first = digests[0];
        self.require(digests.iter().all(|&d| d == first), || {
            format!("{scale} build digests differ across set-ups: {digests:x?}")
        });
        if let Some(want) = digests::recorded(scale, seed) {
            self.require(first == want, || {
                format!("{scale} build digest {first:016x} != recorded {want:016x} (seed {seed})")
            });
        }
    }

    /// Every served level equals the synchronous replay.
    fn levels(&mut self, what: &str, served: &[u8], oracle: &[u8]) {
        let wrong = served
            .iter()
            .zip(oracle)
            .filter(|(&s, &o)| s != u8::MAX && s != o)
            .count();
        self.require(wrong == 0, || {
            format!("{what}: {wrong} served levels differ from the synchronous replay")
        });
    }
}

/// One metric line of the result.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// `name.p50` and `name.p99` of per-call samples (0 when the layer did
/// no work in this workload).
fn percentiles(name: &str, samples: &[f64], unit: &'static str) -> [Metric; 2] {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p = |q| stats::percentile(&sorted, q).unwrap_or(0.0);
    [
        metric(format!("{name}.p50"), p(5_000), unit),
        metric(format!("{name}.p99"), p(9_900), unit),
    ]
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric], declared: &[&str]) {
    let mut emitted: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    let mut want = declared.to_vec();
    emitted.sort_unstable();
    want.sort_unstable();
    assert_eq!(
        emitted, want,
        "emitted metrics must be exactly the declared ones"
    );
    println!();
    for m in metrics {
        assert!(
            stats::valid_name(&m.name) && stats::valid_unit(m.unit),
            "{}",
            m.name
        );
        println!("  {:<36} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// Set-up samples of a timed run, with what each one digested to.
#[derive(Default)]
struct SetupSamples {
    /// `(setup_s, build_s, fit_s)` per set-up, as measured.
    times: Vec<(f64, f64, f64)>,
    /// The host's speed factor over each set-up.
    speeds: Vec<f64>,
    train_digests: Vec<u64>,
    traffic_build_digests: Vec<u64>,
    traffic_digests: Vec<u64>,
}

impl SetupSamples {
    /// One set-up, with its checks and the host's speed factor over it.
    fn one(
        &mut self,
        w: Workload,
        seed: u64,
        speed: &mut HostSpeed,
        checks: &mut Checks,
    ) -> (Setup, f64) {
        let (s, factor) = speed.measure(|| workload::setup(w, seed));
        self.train_digests.push(s.train.digest);
        self.traffic_build_digests.extend(s.traffic_build_digest);
        self.traffic_digests.push(s.traffic.digest());
        checks.require(s.splits.is_user_disjoint(), || {
            "splits share users".to_string()
        });
        (s, factor)
    }

    /// One block of measured set-ups: at least one, more while the block
    /// has taken under [`SETUP_BLOCK_S`].
    fn block(&mut self, w: Workload, seed: u64, speed: &mut HostSpeed, checks: &mut Checks) {
        let (started, before) = (Instant::now(), self.times.len());
        while self.times.len() == before || started.elapsed().as_secs_f64() < SETUP_BLOCK_S {
            let (s, factor) = self.one(w, seed, speed, checks);
            eprintln!(
                "rsdperf: set-up {}: {:.3}s (build {:.3}s, fit {:.3}s), host speed {factor:.3}",
                self.times.len(),
                s.setup_s,
                s.build_s,
                s.fit_s
            );
            self.times.push((s.setup_s, s.build_s, s.fit_s));
            self.speeds.push(factor);
        }
    }

    /// Every build repeated and matched its recorded digest, and the
    /// traffic repeated.
    fn check(&self, w: Workload, seed: u64, checks: &mut Checks) {
        let train_scale = if w == Workload::ServeGbdt {
            Scale::Paper
        } else {
            Scale::Small
        };
        let corpus_seed = workload::training_corpus_seed(train_scale, seed);
        checks.build(train_scale.name(), corpus_seed, &self.train_digests);
        if !self.traffic_build_digests.is_empty() {
            checks.build("paper", seed, &self.traffic_build_digests);
        }
        let first = self.traffic_digests[0];
        checks.require(self.traffic_digests.iter().all(|&d| d == first), || {
            format!(
                "traffic digests differ for one seed: {:x?}",
                self.traffic_digests
            )
        });
    }

    /// One column of the set-ups, as measured and at reference speed.
    fn summaries(&self, column: fn(&(f64, f64, f64)) -> f64) -> (Summary, Summary) {
        let raw: Vec<f64> = self.times.iter().map(column).collect();
        let scaled: Vec<f64> = raw.iter().zip(&self.speeds).map(|(t, f)| t * f).collect();
        (
            Summary::of(&raw).expect("set-ups ran"),
            Summary::of(&scaled).expect("set-ups ran"),
        )
    }
}

/// Serving steps of a timed run, all against the first set-up's model
/// and traffic, each with the host's speed factor over it.
struct Serving<'a> {
    setup: &'a Setup,
    spec: workload::ServeSpec,
    cfg: rsd_serve::ServeConfig,
    /// The level every request should be served.
    oracle: Vec<u8>,
    saturation: Vec<(Step, f64)>,
    reference: Vec<(Step, f64)>,
    sent: u64,
    failed: u64,
}

impl<'a> Serving<'a> {
    fn new(w: Workload, setup: &'a Setup, nproc: usize) -> Self {
        Serving {
            setup,
            spec: w.serve_spec(),
            cfg: workload::serve_config(w),
            oracle: serve::oracle_levels(&setup.model, &setup.traffic, nproc),
            saturation: Vec::new(),
            reference: Vec::new(),
            sent: 0,
            failed: 0,
        }
    }

    /// Run one step, [`serve::UNPACED`] or at the reference rate, and
    /// check every served level.
    fn run(&mut self, rate: f64, speed: &mut HostSpeed, checks: &mut Checks) -> (Step, f64) {
        let (what, n) = if rate == serve::UNPACED {
            ("saturation step".to_string(), self.spec.saturation_requests)
        } else {
            (format!("step at {rate:.0}/s"), self.spec.reference_requests)
        };
        let posts = &self.setup.traffic.posts[..n];
        let (step, factor) =
            speed.measure(|| serve::run_step(&self.setup.model, &self.cfg, posts, rate));
        checks.levels(&what, &step.levels, &self.oracle);
        self.sent += step.sent;
        self.failed += step.failed;
        eprintln!(
            "rsdperf: {what}: sent {} ok {} failed {} p50 {:.3}ms p99 {:.3}ms \
             backlog mid {} end {} achieved {:.1}/s, host speed {factor:.3}",
            step.sent,
            step.succeeded,
            step.failed,
            step.p50_ms(),
            step.p99_ms(),
            step.outstanding_mid,
            step.outstanding_end,
            step.achieved_rate(),
        );
        (step, factor)
    }

    /// One saturation step, then [`REFERENCE_STEPS`] reference steps.
    fn steps(&mut self, speed: &mut HostSpeed, checks: &mut Checks) {
        let step = self.run(serve::UNPACED, speed, checks);
        self.saturation.push(step);
        for _ in 0..REFERENCE_STEPS {
            let step = self.run(self.spec.reference_rate, speed, checks);
            self.reference.push(step);
        }
    }

    /// Capacity from every saturation step's completions over its time,
    /// as measured and at reference speed.
    fn capacity(&self) -> (f64, f64) {
        let rate = |scaled: bool| {
            stats::pooled_rate(
                self.saturation
                    .iter()
                    .map(|(s, f)| (s.succeeded, if scaled { s.span_s * f } else { s.span_s })),
            )
            .unwrap_or(0.0)
        };
        (rate(false), rate(true))
    }

    /// Latency over every reference request, as measured and at
    /// reference speed.
    fn latency(&self) -> (Summary, Summary) {
        let pooled = |scaled: bool| -> Vec<f64> {
            self.reference
                .iter()
                .flat_map(|(s, f)| {
                    let f = if scaled { *f } else { 1.0 };
                    s.latency_ms.iter().map(move |l| l * f)
                })
                .collect()
        };
        let summary = |v: Vec<f64>| Summary::of(&v).expect("reference steps received results");
        (summary(pooled(false)), summary(pooled(true)))
    }
}

fn timed_run(args: &Args, nproc: usize) -> ExitCode {
    let w = args.workload;
    let started = Instant::now();
    let run_ticks = host::CpuTicks::now();
    let mut checks = Checks::default();
    let mut speed = HostSpeed::new();
    let mut setups = SetupSamples::default();
    // The first set-up serves every step of the run. It is checked but
    // not timed: early in a process the builder ran up to 1.5x slower
    // than in every later set-up, in most runs on the host sized on.
    let (setup, _) = setups.one(w, args.seed, &mut speed, &mut checks);
    let mut serving = Serving::new(w, &setup, nproc);
    // Warm-up: one saturation step grows every buffer and wakes every
    // thread the measured steps will use; only its levels are checked.
    serving.run(serve::UNPACED, &mut speed, &mut checks);
    let mut attempted = 0;

    let mut table3_s = None;
    if w == Workload::TrainTable3 {
        let runs = workload::table3(&setup.data(args.seed), &mut speed);
        for r in &runs {
            eprintln!(
                "rsdperf: table3 {:<8} {:.3}s macro-F1 {:.4}, host speed {:.3}",
                r.name, r.secs, r.macro_f1, r.speed
            );
        }
        let mean_f1 = runs.iter().map(|r| r.macro_f1).sum::<f64>() / runs.len() as f64;
        if let Some(want) = digests::recorded_table3_f1(args.seed) {
            checks.require(mean_f1 == want, || {
                format!(
                    "table3 mean macro-F1 {mean_f1} != recorded {want} (seed {})",
                    args.seed
                )
            });
        }
        eprintln!("rsdperf: table3 mean macro-F1 {mean_f1}");
        let raw: f64 = runs.iter().map(|r| r.secs).sum();
        let scaled: f64 = runs.iter().map(|r| r.secs * r.speed).sum();
        table3_s = Summary::of(&[raw]).zip(Summary::of(&[scaled]));
        attempted += runs.len() as u64;
    }

    let mut rounds = 0;
    loop {
        setups.block(w, args.seed, &mut speed, &mut checks);
        for _ in 0..SATURATION_STEPS {
            serving.steps(&mut speed, &mut checks);
        }
        rounds += 1;
        if rounds >= MIN_ROUNDS && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    setups.check(w, args.seed, &mut checks);
    attempted += setups.train_digests.len() as u64 + serving.sent;
    checks.require(serving.failed == 0, || {
        format!("{} requests failed", serving.failed)
    });

    let setup_s = setups.summaries(|s| s.0);
    let build_s = setups.summaries(|s| s.1);
    let train_s = table3_s.unwrap_or_else(|| setups.summaries(|s| s.2));
    let capacity = serving.capacity();
    checks.require(capacity.0 > 0.0, || {
        "no saturation step completed a request".to_string()
    });
    let latency = serving.latency();
    let lateness: Vec<f64> = serving
        .reference
        .iter()
        .flat_map(|(s, _)| s.lateness_ms.iter().copied())
        .collect();
    let grew = serving
        .reference
        .iter()
        .filter(|(s, _)| s.backlog_grew())
        .count();
    // Every served level was checked equal to the oracle's.
    let served_f1 = workload::macro_f1(
        &setup.traffic.labels,
        &serving
            .oracle
            .iter()
            .map(|&l| usize::from(l))
            .collect::<Vec<_>>(),
    );
    let props = setup.traffic.properties(setup.model.window());

    println!(
        "rsdperf {} seed {} (held-out seed {HELD_OUT_SEED}) nproc {nproc} RSD_THREADS {nproc} rev {}",
        w.name(),
        args.seed,
        host::git_rev()
    );
    if let Some((a, b)) = run_ticks.zip(host::CpuTicks::now()) {
        println!(
            "  host steal {:.1}% of CPU time over the run",
            a.steal_share(b) * 100.0
        );
    }
    let probes = Summary::of(&speed.probes).expect("probed");
    println!(
        "  {rounds} rounds in {:.1}s; host probe {} against {:.4}s at reference speed",
        started.elapsed().as_secs_f64(),
        probes.render("s"),
        host::REFERENCE_PROBE_S
    );
    println!("  as measured, then at reference speed:");
    for (name, (raw, scaled)) in [
        ("setup_s", setup_s),
        ("build_s", build_s),
        ("train_s", train_s),
    ] {
        println!("  {name:<9} {}", raw.render("s"));
        println!("  {:<9} {}", "", scaled.render("s"));
    }
    println!(
        "  serve     {} sent, {} failed; capacity {:.1}/s, {:.1}/s over {} saturation steps",
        serving.sent,
        serving.failed,
        capacity.0,
        capacity.1,
        serving.saturation.len()
    );
    let rate = serving.spec.reference_rate;
    println!("  at {rate:.0}/s, all requests {}", latency.0.render("ms"));
    println!("  {:<9} {}", "", latency.1.render("ms"));
    println!(
        "  {grew} of {} reference steps grew a backlog",
        serving.reference.len()
    );
    if let Some(lateness) = Summary::of(&lateness) {
        println!("  generator lateness {}", lateness.render("ms"));
    }
    println!(
        "  traffic: {} requests, {} users, window>=2 share {:.4}, mean window {:.3}, \
         {:.1} tokens/post, digest {:016x}; served macro-F1 {served_f1:.4}",
        setup.traffic.posts.len(),
        props.distinct_users,
        props.window_len_ge2_share,
        props.window_len_mean,
        props.tokens_per_post_mean,
        setups.traffic_digests[0]
    );
    println!("  build digest {:016x}", setups.train_digests[0]);

    let metrics = [
        metric("setup_s", setup_s.1.median, "s"),
        metric("build_s", build_s.1.median, "s"),
        metric("train_s", train_s.1.median, "s"),
        metric("serve_capacity_qps", capacity.1, "req/s"),
        metric("serve_p50_ms", latency.1.median, "ms"),
        metric("peak_rss_mb", host::peak_rss_mb(), "MiB"),
    ];
    let correct = checks.failures.is_empty();
    print_result(correct, attempted, serving.failed, &metrics, &END_TO_END);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The untraced phase the traced run is compared against: one set-up,
/// plus Table III on `train_table3`. Returns its wall-clock, s.
fn overhead_phase(args: &Args) -> (Setup, Option<Vec<workload::BaselineRun>>, f64) {
    let t = Instant::now();
    let setup = workload::setup(args.workload, args.seed);
    let runs = (args.workload == Workload::TrainTable3)
        .then(|| workload::table3(&setup.data(args.seed), &mut host::HostSpeed::new()));
    (setup, runs, t.elapsed().as_secs_f64())
}

/// Run this binary untraced on the overhead phase and read its wall-clock.
fn untraced_probe(args: &Args) -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--probe",
        ])
        .env_remove("RSD_OBS_PROFILE")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()?
        .strip_prefix("probe_s ")?
        .trim()
        .parse()
        .ok()
}

fn span_total_s(label: &str) -> f64 {
    rsd_obs::registry()
        .span_stat(label)
        .map_or(0.0, |s| s.total_ns as f64 / 1e9)
}

fn traced_run(args: &Args, nproc: usize) -> ExitCode {
    let w = args.workload;
    let mut checks = Checks::default();
    let untraced_s = untraced_probe(args);
    let (setup, runs, traced_s) = overhead_phase(args);
    let overhead = untraced_s.map_or(f64::NAN, |u| traced_s / u - 1.0);
    eprintln!("rsdperf: traced phase {traced_s:.3}s vs untraced {untraced_s:?}s");
    checks.require(setup.splits.is_user_disjoint(), || {
        "splits share users".to_string()
    });

    let (levels, samples) = {
        let _span = rsd_obs::Span::enter("rsdperf.replay");
        serve::traced_replay(&setup.model, &setup.traffic)
    };
    let oracle = serve::oracle_levels(&setup.model, &setup.traffic, nproc);
    checks.require(levels == oracle, || {
        "traced replay differs from the oracle replay".to_string()
    });
    let spec = w.serve_spec();
    let step = {
        let _span = rsd_obs::Span::enter("rsdperf.serve_step");
        serve::run_step(
            &setup.model,
            &workload::serve_config(w),
            &setup.traffic.posts[..2 * spec.reference_requests],
            spec.reference_rate,
        )
    };
    checks.levels("traced reference step", &step.levels, &oracle);
    checks.require(step.failed == 0, || {
        format!("{} requests failed at the reference rate", step.failed)
    });

    let props = setup.traffic.properties(setup.model.window());
    let served_f1 = workload::macro_f1(
        &setup.traffic.labels,
        &oracle.iter().map(|&l| usize::from(l)).collect::<Vec<_>>(),
    );
    let (train_f1, baseline_s) = match &runs {
        Some(runs) => (
            runs.iter().map(|r| r.macro_f1).sum::<f64>() / runs.len() as f64,
            runs.iter().map(|r| (r.name, r.secs)).collect::<Vec<_>>(),
        ),
        None => (workload::test_macro_f1(&setup), Vec::new()),
    };
    let baseline = |name: &str| {
        baseline_s
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |b| b.1)
    };
    let tree = rsd_obs::registry().tree();
    // Self-time of the training loop's own spans (`models.train`,
    // `.epoch`, `.batch`): the time no kernel span explains.
    let train_self_s = tree
        .iter()
        .filter(|(path, _)| {
            let leaf = path.rsplit(';').next().unwrap_or(path);
            leaf == "models.train" || leaf.starts_with("models.train.")
        })
        .fold(0.0, |acc, (_, t)| acc + t.self_ns as f64 / 1e9);
    let is_plm = w.serve_model().is_plm();
    let n = step.sent.max(1) as f64;

    let mut metrics = vec![
        // The streaming build runs corpus generation and preprocessing as
        // pipeline stages; the batch path's spans are counted too.
        metric(
            "corpus.generate_s",
            span_total_s("pipeline.shard.corpus") + span_total_s("corpus.generate"),
            "s",
        ),
        metric(
            "textproc.preprocess_s",
            span_total_s("pipeline.shard.preprocess") + span_total_s("textproc.pipeline"),
            "s",
        ),
        metric(
            "annotation.campaign_s",
            span_total_s("annotation.campaign"),
            "s",
        ),
        metric("dataset.splits_s", setup.splits_s, "s"),
        metric(
            "dataset.window_len_ge2_share",
            props.window_len_ge2_share,
            "ratio",
        ),
        metric("dataset.window_len_mean", props.window_len_mean, "posts"),
        metric(
            "traffic.distinct_users",
            props.distinct_users as f64,
            "count",
        ),
        metric(
            "traffic.tokens_per_post_mean",
            props.tokens_per_post_mean,
            "tokens",
        ),
        metric("gbdt.fit_s", if is_plm { 0.0 } else { setup.fit_s }, "s"),
        metric("models.xgboost_s", baseline("xgboost"), "s"),
        metric("models.bilstm_s", baseline("bilstm"), "s"),
        metric("models.higru_s", baseline("higru"), "s"),
        metric("models.roberta_s", baseline("roberta"), "s"),
        metric("models.deberta_s", baseline("deberta"), "s"),
        metric(
            "models.plm_fit_s",
            if is_plm {
                setup.fit_s - setup.export_s
            } else {
                0.0
            },
            "s",
        ),
        metric("models.plm_export_s", setup.export_s, "s"),
        metric("models.train_self_s", train_self_s, "s"),
        metric("nn.matmul_nt_s", span_total_s("nn.matmul_nt"), "s"),
        metric(
            "serve.blocked_submit_share",
            step.blocked_submits as f64 / n,
            "ratio",
        ),
        metric(
            "serve.batch_mean",
            n / step.batches.max(1) as f64,
            "requests",
        ),
        metric("serve.backlog_max", step.backlog_max as f64, "requests"),
        metric("gen.sent", step.sent as f64, "requests"),
        metric("gen.failed", step.failed as f64, "requests"),
        metric("trace.overhead_share", overhead, "ratio"),
        metric("train_macro_f1", train_f1, "ratio"),
        metric("serve_macro_f1", served_f1, "ratio"),
        metric("serve_p99_ms", step.p99_ms(), "ms"),
    ];
    metrics.extend(percentiles(
        "dataset.window_apply_us",
        &samples.window_apply_us,
        "us",
    ));
    metrics.extend(percentiles(
        "features.transform_stream_us",
        &samples.transform_stream_us,
        "us",
    ));
    metrics.extend(percentiles(
        "gbdt.predict_row_us",
        &samples.predict_row_us,
        "us",
    ));
    metrics.extend(percentiles(
        "models.plm_encode_stream_us",
        &samples.encode_stream_us,
        "us",
    ));
    metrics.extend(percentiles(
        "nn.plm_score_int8_us",
        &samples.score_int8_us,
        "us",
    ));
    metrics.extend(percentiles("serve.submit_us", &step.submit_us, "us"));
    let mut lateness = step.lateness_ms.clone();
    lateness.sort_by(f64::total_cmp);
    metrics.push(metric(
        "gen.lateness_ms.p99",
        stats::percentile(&lateness, 9_900).unwrap_or(0.0),
        "ms",
    ));

    let profile =
        std::path::PathBuf::from(".rsdperf").join(format!("{}-seed{}.folded", w.name(), args.seed));
    let written = std::fs::create_dir_all(".rsdperf")
        .and_then(|()| std::fs::write(&profile, rsd_obs::render_folded(&tree)));
    match written {
        Ok(()) => eprintln!("rsdperf: folded profile {}", profile.display()),
        Err(e) => eprintln!("rsdperf: cannot write {}: {e}", profile.display()),
    }
    println!(
        "rsdperf {} seed {} traced (held-out seed {HELD_OUT_SEED}) nproc {nproc} rev {}",
        w.name(),
        args.seed,
        host::git_rev()
    );
    let correct = checks.failures.is_empty();
    let attempted = step.sent + 1 + runs.as_ref().map_or(0, |r| r.len() as u64);
    print_result(correct, attempted, step.failed, &metrics, &PER_LAYER);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rsdperf: {e}");
            eprintln!("usage: rsdperf --workload <serve_gbdt|serve_int8|train_table3> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let nproc = pin_environment(args.trace && !args.probe);
    if args.probe {
        let (_, _, secs) = overhead_phase(&args);
        println!("probe_s {secs}");
        return ExitCode::SUCCESS;
    }
    if args.trace {
        traced_run(&args, nproc)
    } else {
        timed_run(&args, nproc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one top-level array of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("string closes")].to_string())
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json_and_are_valid() {
        assert_eq!(declared("end_to_end"), END_TO_END);
        assert_eq!(declared("per_layer"), PER_LAYER);
        let workloads = declared("workloads");
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
        let mut all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        all.extend(names);
        for name in &all {
            assert!(stats::valid_name(name), "{name}");
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "names are used once");
    }
}
