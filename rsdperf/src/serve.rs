//! Open-loop serving steps against `rsd_serve::RiskService`, and the
//! synchronous replay that says what every served level should be.
//!
//! One step starts a fresh service, submits the traffic from one thread
//! on a fixed schedule (request `i` is due at `t0 + i / rate`, whether or
//! not earlier ones finished), and receives results on a second thread.
//! Latency runs from the due instant to result receipt, so a stall in
//! the service or the generator shows in every request queued behind it.
//! An [`UNPACED`] step has every request due at once: the generator
//! submits as fast as the service's bounded ingress queue accepts, so the
//! step measures the rate the service completes requests at when it is
//! offered more than it can take.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rsd_dataset::{StoreItem, UserWindowStore};
use rsd_models::{ScoreScratch, ScoringModel};
use rsd_serve::{IncomingPost, RiskService, ServeConfig};

use crate::stats;
use crate::traffic::Traffic;

/// The offered rate of a saturation step: every request is due at once.
pub const UNPACED: f64 = f64::INFINITY;

/// Outstanding requests the backlog may grow by between a step's
/// midpoint and its end before the step counts as falling behind: two
/// full micro-batches at the service's default cap of 64, which the
/// int8 backend's queue swings by in normal operation.
pub const BACKLOG_GROWTH_FLOOR: u64 = 128;

/// Whether the backlog grew from a step's midpoint to its end.
pub fn backlog_growing(outstanding_mid: u64, outstanding_end: u64) -> bool {
    outstanding_end > outstanding_mid + BACKLOG_GROWTH_FLOOR
}

/// Head start before the first request is due, so it is not late by
/// the time the service has started.
const LEAD: Duration = Duration::from_millis(5);

/// What one open-loop step measured.
#[derive(Debug, Clone)]
pub struct Step {
    /// Requests submitted (attempted).
    pub sent: u64,
    /// Results received in order for their request.
    pub succeeded: u64,
    /// Submit errors plus missing, duplicate or out-of-order results.
    pub failed: u64,
    /// Due-to-receipt latency per received result, ms.
    pub latency_ms: Vec<f64>,
    /// How late the generator submitted each request, ms.
    pub lateness_ms: Vec<f64>,
    /// Wall-clock of each `submit` call, µs.
    pub submit_us: Vec<f64>,
    /// Outstanding requests at the step's midpoint and end of submission.
    pub outstanding_mid: u64,
    /// See `outstanding_mid`.
    pub outstanding_end: u64,
    /// Largest outstanding count seen at any submit.
    pub backlog_max: u64,
    /// Served level per request index (`u8::MAX` when never received).
    pub levels: Vec<u8>,
    /// Seconds from the first request's due instant to the last receipt.
    pub span_s: f64,
    /// Micro-batches the service ran.
    pub batches: u64,
    /// Submits that blocked on a full ingress queue.
    pub blocked_submits: u64,
}

impl Step {
    /// Median latency, ms (NaN when nothing was received).
    pub fn p50_ms(&self) -> f64 {
        stats::Summary::of(&self.latency_ms).map_or(f64::NAN, |s| s.median)
    }

    /// p99 latency, ms (NaN when fewer than ten results lie beyond it).
    pub fn p99_ms(&self) -> f64 {
        let mut sorted = self.latency_ms.clone();
        sorted.sort_by(f64::total_cmp);
        if stats::tail_percentile(sorted.len()).is_some_and(|p| p >= 9_900) {
            stats::percentile(&sorted, 9_900).unwrap_or(f64::NAN)
        } else {
            f64::NAN
        }
    }

    /// Results completed per second over the step.
    pub fn achieved_rate(&self) -> f64 {
        stats::pooled_rate([(self.succeeded, self.span_s)]).unwrap_or(0.0)
    }

    /// Whether the outstanding count grew over the step's second half.
    pub fn backlog_grew(&self) -> bool {
        backlog_growing(self.outstanding_mid, self.outstanding_end)
    }
}

/// Run one open-loop step: a fresh service serves `traffic` at `rate`
/// requests/s ([`UNPACED`]: all at once).
pub fn run_step(
    model: &Arc<ScoringModel>,
    cfg: &ServeConfig,
    traffic: &[IncomingPost],
    rate: f64,
) -> Step {
    let n = traffic.len();
    let posts = traffic.to_vec();
    let expected: Vec<(u32, u32)> = posts.iter().map(|p| (p.user, p.post)).collect();
    let service = RiskService::start(Arc::clone(model), cfg.clone());
    let results = service.results();
    let received = AtomicU64::new(0);
    let t0 = Instant::now() + LEAD;
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);

    let mut lateness_ms = Vec::with_capacity(n);
    let mut submit_us = Vec::with_capacity(n);
    let (mut mid, mut backlog_max) = (0u64, 0u64);

    let ((latency_ms, levels, disorder, last_recv), end, report) = thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut latency_ms = Vec::with_capacity(n);
            let mut levels = vec![u8::MAX; n];
            let (mut next, mut disorder) = (0usize, 0u64);
            let mut last = t0;
            while let Some(scored) = results.recv() {
                let now = Instant::now();
                last = now;
                // Results must arrive in submission order: the next
                // expected request, exactly once.
                if next < n && (scored.user, scored.post) == expected[next] {
                    latency_ms.push(now.saturating_duration_since(due(next)).as_secs_f64() * 1e3);
                    levels[next] = scored.level.index() as u8;
                    next += 1;
                    received.fetch_add(1, Ordering::Release);
                } else {
                    disorder += 1;
                }
            }
            (latency_ms, levels, disorder, last)
        });

        for (i, post) in posts.into_iter().enumerate() {
            let due_at = due(i);
            let now = Instant::now();
            if due_at > now {
                thread::sleep(due_at - now);
            }
            let start = Instant::now();
            lateness_ms.push(start.saturating_duration_since(due_at).as_secs_f64() * 1e3);
            // A refused submit shows below as a missing result.
            let _ = service.submit(post);
            submit_us.push(start.elapsed().as_secs_f64() * 1e6);
            let outstanding = (i as u64 + 1).saturating_sub(received.load(Ordering::Acquire));
            backlog_max = backlog_max.max(outstanding);
            if i + 1 == n.div_ceil(2) {
                mid = outstanding;
            }
        }
        let end = (n as u64).saturating_sub(received.load(Ordering::Acquire));
        let report = service.drain();
        let received = receiver.join().expect("result thread panicked");
        (received, end, report)
    });

    let succeeded = latency_ms.len() as u64;
    Step {
        sent: n as u64,
        succeeded,
        // Every request not received in order either failed to submit
        // or went missing.
        failed: (n as u64 - succeeded) + disorder,
        latency_ms,
        lateness_ms,
        submit_us,
        outstanding_mid: mid,
        outstanding_end: end,
        backlog_max,
        levels,
        span_s: last_recv.saturating_duration_since(t0).as_secs_f64(),
        batches: report.batches,
        blocked_submits: report.blocked_submits,
    }
}

/// Per-request cost of each layer call in a synchronous replay, µs.
#[derive(Debug, Default, Clone)]
pub struct LayerSamples {
    /// `UserWindowStore::apply` plus the window read.
    pub window_apply_us: Vec<f64>,
    /// `FeatureExtractor::transform_stream_into` (GBDT backend).
    pub transform_stream_us: Vec<f64>,
    /// `Booster::predict_row` (GBDT backend).
    pub predict_row_us: Vec<f64>,
    /// `PlmInferenceModel::encode_stream` (PLM backend).
    pub encode_stream_us: Vec<f64>,
    /// `PlmInferenceModel::score` on the int8 path (PLM backend).
    pub score_int8_us: Vec<f64>,
}

/// The level every request should be served: the traffic replayed
/// synchronously through a `UserWindowStore` and
/// `ScoringModel::score_stream`, users split across `threads` workers
/// (windows are per user, so the split cannot change a level).
pub fn oracle_levels(model: &ScoringModel, traffic: &Traffic, threads: usize) -> Vec<u8> {
    let threads = threads.max(1);
    let mut levels = vec![u8::MAX; traffic.posts.len()];
    let parts: Vec<Vec<(usize, u8)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut store: UserWindowStore<&str> =
                        UserWindowStore::new(1, model.window(), usize::MAX / 2);
                    let mut scratch = ScoreScratch::default();
                    let mut texts: Vec<&str> = Vec::new();
                    let mut stamps = Vec::new();
                    let mut out = Vec::new();
                    for (i, p) in traffic.posts.iter().enumerate() {
                        if p.user as usize % threads != t {
                            continue;
                        }
                        store.apply(StoreItem {
                            user: p.user,
                            created: p.created,
                            id: p.post,
                            payload: p.text.as_str(),
                        });
                        let buf = store.buffer(p.user).expect("just applied");
                        texts.clear();
                        texts.extend(buf.entries().iter().map(|e| e.payload));
                        stamps.clear();
                        stamps.extend(buf.entries().iter().map(|e| e.created));
                        let level = model.score_stream(
                            &texts,
                            &stamps,
                            buf.total_seen() as usize,
                            &mut scratch,
                        );
                        out.push((i, level as u8));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle worker panicked"))
            .collect()
    });
    for (i, level) in parts.into_iter().flatten() {
        levels[i] = level;
    }
    levels
}

/// Single-threaded replay through the per-request layer functions,
/// timing each call inside a span of its own. Returns the levels (which
/// must equal [`oracle_levels`]) and the per-call costs.
pub fn traced_replay(model: &ScoringModel, traffic: &Traffic) -> (Vec<u8>, LayerSamples) {
    let mut store: UserWindowStore<&str> = UserWindowStore::new(1, model.window(), usize::MAX / 2);
    let mut samples = LayerSamples::default();
    let mut row = Vec::new();
    let mut plm_scratch = rsd_models::PlmScratch::default();
    let mut texts: Vec<&str> = Vec::new();
    let mut stamps = Vec::new();
    let mut levels = Vec::with_capacity(traffic.posts.len());
    let quantized = model.model().quantized();
    let timed = |label: &'static str, out: &mut Vec<f64>, f: &mut dyn FnMut()| {
        let _span = rsd_obs::Span::enter(label);
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64() * 1e6);
    };
    for p in &traffic.posts {
        let mut total_seen = 0usize;
        timed(
            "rsdperf.window_apply",
            &mut samples.window_apply_us,
            &mut || {
                store.apply(StoreItem {
                    user: p.user,
                    created: p.created,
                    id: p.post,
                    payload: p.text.as_str(),
                });
                let buf = store.buffer(p.user).expect("just applied");
                texts.clear();
                texts.extend(buf.entries().iter().map(|e| e.payload));
                stamps.clear();
                stamps.extend(buf.entries().iter().map(|e| e.created));
                total_seen = buf.total_seen() as usize;
            },
        );
        let mut level = 0usize;
        match model.plm_engine() {
            None => {
                let extractor = model.extractor();
                let booster = model.booster();
                timed(
                    "rsdperf.transform_stream",
                    &mut samples.transform_stream_us,
                    &mut || extractor.transform_stream_into(&texts, &stamps, total_seen, &mut row),
                );
                timed(
                    "rsdperf.predict_row",
                    &mut samples.predict_row_us,
                    &mut || level = booster.predict_row(&row),
                );
            }
            Some(engine) => {
                let mut encoded = None;
                timed(
                    "rsdperf.encode_stream",
                    &mut samples.encode_stream_us,
                    &mut || encoded = Some(engine.encode_stream(&texts, &stamps)),
                );
                let encoded = encoded.expect("encoded above");
                timed(
                    "rsdperf.plm_score_int8",
                    &mut samples.score_int8_us,
                    &mut || level = engine.score(&encoded, quantized, &mut plm_scratch),
                );
            }
        }
        levels.push(level as u8);
    }
    (levels, samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_grows_only_past_the_floor() {
        assert!(!backlog_growing(3, 5));
        // A large but steady backlog is not growth.
        assert!(!backlog_growing(500, 500 + BACKLOG_GROWTH_FLOOR));
        assert!(backlog_growing(100, 100 + BACKLOG_GROWTH_FLOOR + 1));
        // A backlog that drains is not growth either.
        assert!(!backlog_growing(700, 10));
    }
}
