//! Run manifests: enough provenance to re-run any result.
//!
//! Every analysis or simulation that emits numbers should carry a
//! [`RunManifest`] recording the RNG seed, a digest of the effective
//! configuration, the crate version, and the wall-clock start. The
//! report layer (`gvc-core::report`) embeds one, and the CLI prints it
//! alongside trace/metrics output, so a result can always be traced
//! back to the exact inputs that produced it.

use std::time::{SystemTime, UNIX_EPOCH};

/// FNV-1a 64-bit digest — stable, dependency-free, good enough to
/// fingerprint a config string (this is provenance, not security).
pub fn fnv1a64(data: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Provenance of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// The tool or subcommand that produced the result.
    pub tool: String,
    /// Scenario RNG seed.
    pub seed: u64,
    /// FNV-1a digest of the canonical config string.
    pub config_digest: u64,
    /// The configuration string the digest covers (flag=value pairs).
    pub config: String,
    /// Workspace crate version.
    pub version: String,
    /// Wall-clock start, unix milliseconds.
    pub started_unix_ms: u64,
}

impl RunManifest {
    /// A manifest stamped now. `config` should be a canonical
    /// `key=value` listing of every knob that affects the output.
    pub fn new(tool: &str, seed: u64, config: &str) -> RunManifest {
        let started_unix_ms =
            SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_millis() as u64);
        RunManifest {
            tool: tool.to_string(),
            seed,
            config_digest: fnv1a64(config),
            config: config.to_string(),
            version: env!("CARGO_PKG_VERSION").to_string(),
            started_unix_ms,
        }
    }

    /// One JSON object (the `run.manifest` trace event payload shape).
    #[cfg(test)]
    fn to_json(&self) -> String {
        use crate::json::Quoted;
        format!(
            "{{\"tool\":{},\"seed\":{},\"config_digest\":\"{:016x}\",\"config\":{},\
             \"version\":{},\"started_unix_ms\":{}}}",
            Quoted(&self.tool),
            self.seed,
            self.config_digest,
            Quoted(&self.config),
            Quoted(&self.version),
            self.started_unix_ms,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_sensitive() {
        assert_eq!(fnv1a64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64("gap=60"), fnv1a64("gap=60"));
        assert_ne!(fnv1a64("gap=60"), fnv1a64("gap=61"));
    }

    #[test]
    fn manifest_fields_round_trip() {
        let m = RunManifest::new("simulate", 42, "scenario=slac scale=0.1");
        assert_eq!(m.tool, "simulate");
        assert_eq!(m.seed, 42);
        assert_eq!(m.config_digest, fnv1a64("scenario=slac scale=0.1"));
        assert!(!m.version.is_empty());
        let j = m.to_json();
        assert!(j.contains("\"tool\":\"simulate\""));
        assert!(j.contains("\"seed\":42"));
        assert!(j.contains(&format!("{:016x}", m.config_digest)));
    }

    #[test]
    fn same_config_same_digest_different_time_ok() {
        let a = RunManifest::new("t", 1, "x=1");
        let b = RunManifest::new("t", 1, "x=1");
        assert_eq!(a.config_digest, b.config_digest);
    }

    #[test]
    fn control_characters_in_config_are_escaped() {
        let j = RunManifest::new("gvc-tidy", 0, "root=/tmp/a\tb\nc").to_json();
        assert!(j.contains("\"config\":\"root=/tmp/a\\tb\\nc\""), "{j}");
        assert!(j.bytes().all(|b| b >= 0x20), "raw control byte in {j:?}");
    }
}
