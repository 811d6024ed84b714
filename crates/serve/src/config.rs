//! Serving configuration. Sizing is fixed at its defaults (tests build
//! configs directly); the backend choice and the stall-injection fault
//! come from the environment with hard errors on invalid values (the
//! `RSD_SCALE` precedent: a typo'd knob must name itself and abort,
//! never silently fall back to a default).

use rsd_common::{Result, RsdError};
use rsd_models::ServeModel;

/// Configuration for [`RiskService`](crate::RiskService).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of user-state shards (default 8).
    pub shards: usize,
    /// Maximum resident users across all shards (default 65 536).
    pub lru_capacity: usize,
    /// Micro-batch size cap for the scoring worker (default 64).
    pub batch_max: usize,
    /// Bounded-channel capacity for ingress and results (default 1024).
    pub channel_cap: usize,
    /// Scoring backend the service is expected to run
    /// (`RSD_SERVE_MODEL`: `gbdt | plm-f32 | plm-int8`, default `gbdt`).
    /// The fitting side (loadgen, deployment harness) routes on this to
    /// build the matching [`ScoringModel`](rsd_models::ScoringModel).
    pub model: ServeModel,
    /// Fault injection for the SLO self-test
    /// (`RSD_SERVE_INJECT_STALL_MS`): when set, the scoring worker
    /// sleeps this long once, right after its first micro-batch, so CI
    /// can assert the burn-rate monitor trips on a real stall. Unset
    /// (or `0`/`off`) in every production configuration.
    pub inject_stall_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 8,
            lru_capacity: 65_536,
            batch_max: 64,
            channel_cap: 1024,
            model: ServeModel::Gbdt,
            inject_stall_ms: None,
        }
    }
}

impl ServeConfig {
    /// The defaults with `RSD_SERVE_MODEL` and
    /// `RSD_SERVE_INJECT_STALL_MS` applied. Unset knobs keep their
    /// defaults; set-but-invalid knobs hard-error with the knob named.
    pub fn from_env() -> Result<ServeConfig> {
        let d = ServeConfig::default();
        Ok(ServeConfig {
            model: model_env(d.model)?,
            inject_stall_ms: optional_ms_env("RSD_SERVE_INJECT_STALL_MS")?,
            ..d
        })
    }
}

/// Parse `var` as an optional millisecond count: unset, empty, `0`, and
/// `off` all mean disabled; anything else must be a positive integer or
/// the config errors naming the knob.
fn optional_ms_env(var: &'static str) -> Result<Option<u64>> {
    match std::env::var(var) {
        Err(_) => Ok(None),
        Ok(raw) => {
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed == "0" || trimmed == "off" {
                return Ok(None);
            }
            match trimmed.parse::<u64>() {
                Ok(ms) => Ok(Some(ms)),
                Err(_) => Err(RsdError::config(
                    var,
                    format!("expected milliseconds as a positive integer, got {raw:?}"),
                )),
            }
        }
    }
}

/// Parse `RSD_SERVE_MODEL`, defaulting when unset or blank. A set but
/// unknown spelling is a configuration error naming the knob and the
/// valid choices.
fn model_env(default: ServeModel) -> Result<ServeModel> {
    match std::env::var(ServeModel::KNOB) {
        Err(_) => Ok(default),
        Ok(raw) if raw.trim().is_empty() => Ok(default),
        Ok(raw) => ServeModel::from_name(raw.trim()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // All RSD_SERVE_* env manipulation lives in this single test to
    // avoid races with parallel test threads (the knobs are unique to
    // this crate).
    #[test]
    fn env_parsing_defaults_and_rejects_garbage() {
        let cfg = ServeConfig::from_env().unwrap();
        assert_eq!(
            (cfg.shards, cfg.lru_capacity, cfg.batch_max, cfg.channel_cap),
            (8, 65_536, 64, 1024)
        );

        // Stall-injection knob: optional, disable spellings, named
        // errors on garbage.
        std::env::remove_var("RSD_SERVE_INJECT_STALL_MS");
        assert_eq!(ServeConfig::from_env().unwrap().inject_stall_ms, None);
        for off in ["", "0", "off"] {
            std::env::set_var("RSD_SERVE_INJECT_STALL_MS", off);
            assert_eq!(ServeConfig::from_env().unwrap().inject_stall_ms, None);
        }
        std::env::set_var("RSD_SERVE_INJECT_STALL_MS", " 1500 ");
        assert_eq!(ServeConfig::from_env().unwrap().inject_stall_ms, Some(1500));
        std::env::set_var("RSD_SERVE_INJECT_STALL_MS", "soon");
        let err = ServeConfig::from_env().unwrap_err().to_string();
        assert!(
            err.contains("RSD_SERVE_INJECT_STALL_MS"),
            "error must name the knob: {err}"
        );
        std::env::remove_var("RSD_SERVE_INJECT_STALL_MS");

        // Model routing knob: defaults, valid spellings, named errors.
        std::env::remove_var(ServeModel::KNOB);
        assert_eq!(ServeConfig::from_env().unwrap().model, ServeModel::Gbdt);
        std::env::set_var(ServeModel::KNOB, "");
        assert_eq!(ServeConfig::from_env().unwrap().model, ServeModel::Gbdt);
        std::env::set_var(ServeModel::KNOB, " plm-int8 ");
        assert_eq!(ServeConfig::from_env().unwrap().model, ServeModel::PlmInt8);
        std::env::set_var(ServeModel::KNOB, "plm-f32");
        assert_eq!(ServeConfig::from_env().unwrap().model, ServeModel::PlmF32);
        std::env::set_var(ServeModel::KNOB, "resnet");
        let err = ServeConfig::from_env().unwrap_err().to_string();
        assert!(
            err.contains("RSD_SERVE_MODEL") && err.contains("plm-int8"),
            "error must name the knob and the choices: {err}"
        );
        std::env::remove_var(ServeModel::KNOB);
    }
}
