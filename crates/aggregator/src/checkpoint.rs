//! Crash-safe persistence for what a restarted aggregator needs.
//!
//! Correlation anchors group ids on the previous run: lose it and every
//! group gets renumbered on restart, which invalidates labels, policies,
//! and operator intuition. This module persists it as *checkpoint
//! generations* in a snapshot namespace of the
//! [`StorageStack`](crate::store::StorageStack)'s backend, with:
//!
//! * a **versioned header** (`roleclass-checkpoint v3`) so format drift
//!   is detected instead of misparsed. v3 holds the identity table, the
//!   last run and the stability resume state, so it does not grow with
//!   uptime; v2 (table plus every run) and v1 (runs only) still load;
//! * **committed writes**: each save is one snapshot append, fsynced
//!   before it returns, so a crash mid-write never costs the previous
//!   generation;
//! * a **backup generation**: the previous checkpoint stays retained,
//!   so a primary that fails to parse recovers to the last good state;
//! * **corruption detection**: a truncated or garbage generation is
//!   reported as [`CheckpointError::Corrupt`], never a panic.

use crate::pipeline::RunRecord;
use flow::HostTable;
use roleclass::{GroupId, TrackerState};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use storage::{NamespaceProfile, StorageBackend, StorageError};

/// First header token; anything else is not a checkpoint.
const MAGIC: &str = "roleclass-checkpoint";
/// Current format version: v3 adds the stability resume state, so the
/// aggregator writes only its last run instead of its whole history.
const VERSION: u32 = 3;
/// Oldest version this build still reads. v1 payloads are a bare run
/// array; the identity table is rebuilt by re-interning run hosts in
/// order, which reproduces the ids live ingestion assigned.
const MIN_VERSION: u32 = 1;

/// The v2 and v3 on-disk payload: the master identity table that
/// assigned each host its dense id, the runs to anchor on, and (v3,
/// from [`Aggregator::checkpoint`](crate::Aggregator::checkpoint)) the
/// stability state that spares restore a replay of the runs.
#[derive(Serialize, Deserialize)]
pub(crate) struct CheckpointDoc {
    pub(crate) table: HostTable,
    pub(crate) runs: Vec<RunRecord>,
    #[serde(default)]
    pub(crate) stability: Option<StabilityResume>,
}

/// What a restarted aggregator needs, next to its last run's grouping,
/// to continue stability scoring and churn alerting exactly where it
/// stopped.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StabilityResume {
    /// The stability tracker's state; its previous grouping is the last
    /// run's.
    pub tracker: TrackerState,
    /// Groups whose RoleChurn collapse episode is still open, so the
    /// episode does not alert a second time after the restart.
    pub churn_latch: BTreeSet<GroupId>,
}

/// Why a checkpoint operation failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// The generation exists but is not a valid checkpoint
    /// (missing/garbled header, truncated or malformed payload).
    Corrupt(String),
    /// The header is valid but the version is one this build can't read.
    BadVersion(u32),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            CheckpointError::BadVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (expected {VERSION})")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<StorageError> for CheckpointError {
    fn from(e: StorageError) -> Self {
        match e {
            StorageError::Io(e) => CheckpointError::Io(e),
            StorageError::Corrupt(why) => CheckpointError::Corrupt(why),
            other => CheckpointError::Corrupt(other.to_string()),
        }
    }
}

/// Where a recovered checkpoint came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoverySource {
    /// The primary checkpoint was intact.
    Primary,
    /// The primary was missing or corrupt; the backup was used.
    Backup,
    /// No generation was usable; starting fresh.
    Fresh,
}

impl RecoverySource {
    /// Stable lowercase name, used in alerts and telemetry labels.
    pub fn as_str(self) -> &'static str {
        match self {
            RecoverySource::Primary => "primary",
            RecoverySource::Backup => "backup",
            RecoverySource::Fresh => "fresh",
        }
    }
}

/// Result of [`Checkpointer::load_or_recover`].
#[derive(Debug)]
pub struct Recovery {
    /// The recovered runs: the last one for a v3 checkpoint written by
    /// the aggregator, every saved one otherwise (empty for
    /// [`RecoverySource::Fresh`]).
    pub runs: Vec<RunRecord>,
    /// The recovered master identity table (empty for
    /// [`RecoverySource::Fresh`]; rebuilt from the runs for v1 payloads).
    pub table: HostTable,
    /// The stability resume state, when the checkpoint carries one.
    pub stability: Option<StabilityResume>,
    /// Which generation supplied it.
    pub source: RecoverySource,
    /// Human-readable notes about anything that went wrong on the way
    /// (e.g. why the primary was rejected). Empty on a clean load.
    pub notes: Vec<String>,
}

/// Writes and reads checkpoint generations.
///
/// Persistence goes through a [`StorageBackend`] snapshot namespace:
/// each save appends one generation (encoded header + payload), the
/// backend keeps the newest `generations` of them, and recovery scans
/// newest → oldest for the first parseable one.
#[derive(Clone, Debug)]
pub struct Checkpointer {
    ns: String,
    backend: Arc<dyn StorageBackend>,
    generations: u64,
}

impl Checkpointer {
    /// A checkpointer storing generations in namespace `ns` of a shared
    /// backend (the [`StorageStack`](crate::store::StorageStack) wiring).
    pub fn with_backend(backend: Arc<dyn StorageBackend>, ns: impl Into<String>) -> Self {
        Checkpointer {
            ns: ns.into(),
            backend,
            generations: 2,
        }
    }

    /// Overrides how many generations the backend retains (minimum 1;
    /// the default 2 is a primary plus one backup).
    pub fn with_generations(mut self, generations: u64) -> Self {
        self.generations = generations.max(1);
        self
    }

    /// Defines the snapshot namespace (idempotently) and returns the
    /// backend.
    fn open_ns(&self) -> Result<&Arc<dyn StorageBackend>, CheckpointError> {
        self.backend
            .define(&self.ns, NamespaceProfile::snapshot(self.generations))?;
        Ok(&self.backend)
    }

    /// Persists `runs` and the master identity `table` as a new
    /// checkpoint generation. The backend's snapshot contract does the
    /// heavy lifting: the generation is committed (fsynced) before the
    /// call returns, the previous one is retained as the backup, and a
    /// crash at any point leaves at least one intact generation.
    ///
    /// The checkpoint carries no stability state, so a restore replays
    /// `runs` to rebuild it; [`Aggregator::checkpoint`](crate::Aggregator::checkpoint)
    /// writes the bounded form instead.
    pub fn save_with_table(
        &self,
        runs: &[RunRecord],
        table: &HostTable,
    ) -> Result<(), CheckpointError> {
        self.save_doc(&CheckpointDoc {
            table: table.clone(),
            runs: runs.to_vec(),
            stability: None,
        })
    }

    /// Encodes `doc` under the current header and appends it as the
    /// newest generation.
    pub(crate) fn save_doc(&self, doc: &CheckpointDoc) -> Result<(), CheckpointError> {
        let payload = serde_json::to_string(doc)
            .map_err(|e| CheckpointError::Corrupt(format!("encode failed: {e}")))?;
        let bytes = format!("{MAGIC} v{VERSION}\n{payload}").into_bytes();
        self.open_ns()?.append(&self.ns, 0, &bytes)?;
        Ok(())
    }

    /// Decodes header + payload bytes into a document.
    fn parse_payload(bytes: &[u8]) -> Result<CheckpointDoc, CheckpointError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| CheckpointError::Corrupt("checkpoint is not UTF-8".to_string()))?;
        let Some((header, payload)) = text.split_once('\n') else {
            return Err(CheckpointError::Corrupt("missing header line".to_string()));
        };
        let Some(version_tag) = header.strip_prefix(MAGIC) else {
            return Err(CheckpointError::Corrupt(format!(
                "bad magic in header {header:?}"
            )));
        };
        let version: u32 = version_tag
            .trim()
            .strip_prefix('v')
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| {
                CheckpointError::Corrupt(format!("unparsable version in header {header:?}"))
            })?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(CheckpointError::BadVersion(version));
        }
        if version == 1 {
            // v1: bare run array, no persisted table. Re-interning each
            // run's hosts in order replays the intern sequence live
            // ingestion performed, so the rebuilt ids match.
            let runs: Vec<RunRecord> = serde_json::from_str(payload)
                .map_err(|e| CheckpointError::Corrupt(format!("payload rejected: {e}")))?;
            let mut table = HostTable::new();
            for run in &runs {
                for h in run.connsets.hosts() {
                    table.intern(h);
                }
            }
            return Ok(CheckpointDoc {
                table,
                runs,
                stability: None,
            });
        }
        let doc: CheckpointDoc = serde_json::from_str(payload)
            .map_err(|e| CheckpointError::Corrupt(format!("payload rejected: {e}")))?;
        // Integrity: every host a run mentions must be in the table —
        // a table/runs mismatch means the payload was hand-edited or
        // mixed from different generations.
        for run in &doc.runs {
            for h in run.connsets.hosts() {
                if doc.table.get(h).is_none() {
                    return Err(CheckpointError::Corrupt(format!(
                        "host {h} missing from identity table"
                    )));
                }
            }
        }
        Ok(doc)
    }

    /// Loads the best available generation, never failing: the newest
    /// intact one wins (primary), older ones are fallbacks (backup),
    /// and with none usable the aggregator starts fresh. Corruption is
    /// reported in [`Recovery::notes`] rather than as an error, so a
    /// restarting aggregator always comes up.
    pub fn load_or_recover(&self) -> Recovery {
        let mut notes = Vec::new();
        let gens = match self
            .open_ns()
            .and_then(|b| b.scan(&self.ns, 0, u64::MAX).map_err(CheckpointError::from))
        {
            Ok(gens) => gens,
            Err(e) => {
                notes.push(format!("checkpoint store unreadable: {e}"));
                Vec::new()
            }
        };
        if gens.is_empty() {
            notes.push("primary checkpoint missing".to_string());
        }
        // Newest generation first: index 0 is the primary, everything
        // older is a backup.
        for (i, rec) in gens.iter().rev().enumerate() {
            let tier = if i == 0 { "primary" } else { "backup" };
            match Self::parse_payload(&rec.value) {
                Ok(doc) => {
                    return Recovery {
                        runs: doc.runs,
                        table: doc.table,
                        stability: doc.stability,
                        source: if i == 0 {
                            RecoverySource::Primary
                        } else {
                            RecoverySource::Backup
                        },
                        notes,
                    }
                }
                Err(e) => notes.push(format!("{tier} checkpoint unusable: {e}")),
            }
        }
        Recovery {
            runs: Vec::new(),
            table: HostTable::new(),
            stability: None,
            source: RecoverySource::Fresh,
            notes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Aggregator, AggregatorConfig, WindowHealth};
    use crate::probe::ReplayProbe;
    use crate::store::{StorageStack, CHECKPOINT_NS};
    use flow::{FlowRecord, HostAddr};
    use storage::StorageConfig;

    fn memory_stack() -> StorageStack {
        StorageStack::open(&StorageConfig::memory()).unwrap()
    }

    /// Appends `bytes` as the newest checkpoint generation, bypassing
    /// the encoder: how a torn or foreign payload reaches the ladder.
    fn append_raw(stack: &StorageStack, bytes: &[u8]) {
        let b = stack.backend();
        b.define(CHECKPOINT_NS, NamespaceProfile::snapshot(2))
            .unwrap();
        b.append(CHECKPOINT_NS, 0, bytes).unwrap();
    }

    /// The newest generation's raw bytes.
    fn latest_raw(stack: &StorageStack) -> Vec<u8> {
        stack
            .backend()
            .latest(CHECKPOINT_NS)
            .unwrap()
            .expect("a checkpoint generation")
            .value
    }

    fn sample_runs() -> Vec<RunRecord> {
        let mut agg = Aggregator::new(AggregatorConfig {
            window_ms: 1000,
            origin_ms: 0,
            min_flows: 1,
            ..AggregatorConfig::default()
        });
        let mut trace = Vec::new();
        for d in 0..2u64 {
            for n in 2..5u32 {
                let mut f = FlowRecord::pair(HostAddr::v4(1), HostAddr::v4(n));
                f.start_ms = d * 1000;
                trace.push(f);
            }
        }
        agg.attach(Box::new(ReplayProbe::new("p0", trace)));
        agg.drain()
    }

    /// The identity table live ingestion builds for `runs`: each run's
    /// hosts interned in order.
    fn table_of(runs: &[RunRecord]) -> HostTable {
        let mut table = HostTable::new();
        for run in runs {
            for h in run.connsets.hosts() {
                table.intern(h);
            }
        }
        table
    }

    #[test]
    fn save_load_round_trip() {
        let stack = memory_stack();
        let ck = stack.checkpointer();
        let runs = sample_runs();
        ck.save_with_table(&runs, &table_of(&runs)).unwrap();
        let back = ck.load_or_recover();
        assert_eq!(back.source, RecoverySource::Primary);
        assert!(back.stability.is_none());
        assert_eq!(back.runs.len(), runs.len());
        assert_eq!(back.runs[0].window, runs[0].window);
        assert_eq!(
            back.runs[1].grouping.group_of(HostAddr::v4(1)),
            runs[1].grouping.group_of(HostAddr::v4(1))
        );
    }

    #[test]
    fn second_save_keeps_backup_generation() {
        let stack = memory_stack();
        let ck = stack.checkpointer();
        let runs = sample_runs();
        ck.save_with_table(&runs[..1], &table_of(&runs[..1]))
            .unwrap();
        ck.save_with_table(&runs, &table_of(&runs)).unwrap();
        let gens = stack.backend().scan(CHECKPOINT_NS, 0, u64::MAX).unwrap();
        assert_eq!(gens.len(), 2);
        let backup = Checkpointer::parse_payload(&gens[0].value).unwrap();
        assert_eq!(backup.runs.len(), 1);
        assert_eq!(ck.load_or_recover().runs.len(), 2);
    }

    #[test]
    fn truncated_primary_recovers_from_backup() {
        let stack = memory_stack();
        let ck = stack.checkpointer();
        let runs = sample_runs();
        ck.save_with_table(&runs, &table_of(&runs)).unwrap();
        let full = latest_raw(&stack);
        ck.save_with_table(&runs[..1], &table_of(&runs[..1]))
            .unwrap();
        // A newer generation chopped mid-payload becomes the primary.
        let torn = &full[..full.len() / 2];
        assert!(matches!(
            Checkpointer::parse_payload(torn),
            Err(CheckpointError::Corrupt(_))
        ));
        append_raw(&stack, torn);
        let rec = ck.load_or_recover();
        assert_eq!(rec.source, RecoverySource::Backup);
        assert_eq!(rec.runs.len(), 1);
        assert!(!rec.notes.is_empty());
    }

    #[test]
    fn garbage_and_missing_generations_never_panic() {
        let stack = memory_stack();
        let ck = stack.checkpointer();
        // Missing: fresh start.
        let rec = ck.load_or_recover();
        assert_eq!(rec.source, RecoverySource::Fresh);
        assert!(rec.runs.is_empty());
        // Garbage bytes in both generations: still a fresh start.
        append_raw(&stack, b"roleclass-checkpoint v1\n{oops");
        append_raw(&stack, b"\x00\xffnot a checkpoint");
        let rec = ck.load_or_recover();
        assert_eq!(rec.source, RecoverySource::Fresh);
        assert_eq!(rec.notes.len(), 2);
    }

    #[test]
    fn future_version_is_rejected_not_misparsed() {
        let stack = memory_stack();
        let bytes = b"roleclass-checkpoint v99\n[]";
        assert!(matches!(
            Checkpointer::parse_payload(bytes),
            Err(CheckpointError::BadVersion(99))
        ));
        append_raw(&stack, bytes);
        let rec = stack.checkpointer().load_or_recover();
        assert_eq!(rec.source, RecoverySource::Fresh);
        assert!(rec.notes.iter().any(|n| n.contains("version 99")));
    }

    #[test]
    fn host_table_round_trips_through_checkpoint() {
        let stack = memory_stack();
        let ck = stack.checkpointer();
        let runs = sample_runs();
        // A live master table may know hosts no retained run mentions.
        let mut master = table_of(&runs);
        let retired = master.intern(HostAddr::v4(0xDEAD));
        ck.save_with_table(&runs, &master).unwrap();
        let back = ck.load_or_recover();
        assert_eq!(back.source, RecoverySource::Primary);
        assert_eq!(back.runs.len(), runs.len());
        assert_eq!(back.table.len(), master.len());
        assert_eq!(back.table.get(HostAddr::v4(0xDEAD)), Some(retired));
        for (id, addr) in master.iter() {
            assert_eq!(back.table.get(addr), Some(id));
        }
    }

    #[test]
    fn v1_checkpoints_still_load_with_rebuilt_table() {
        let stack = memory_stack();
        let runs = sample_runs();
        // A literal v1 payload: bare run array, no table.
        let payload = serde_json::to_string(&runs).unwrap();
        append_raw(
            &stack,
            format!("roleclass-checkpoint v1\n{payload}").as_bytes(),
        );
        let back = stack.checkpointer().load_or_recover();
        assert_eq!(back.source, RecoverySource::Primary);
        assert_eq!(back.runs.len(), runs.len());
        // The rebuilt table covers every host the runs mention, densely.
        let expected = table_of(&runs);
        assert_eq!(back.table.len(), expected.len());
        for (id, addr) in expected.iter() {
            assert_eq!(back.table.get(addr), Some(id));
        }
    }

    #[test]
    fn table_runs_mismatch_is_corrupt() {
        let stack = memory_stack();
        let ck = stack.checkpointer();
        let runs = sample_runs();
        // A table that misses hosts the runs mention: rejected.
        let empty = flow::HostTable::new();
        ck.save_with_table(&runs, &empty).unwrap();
        assert!(matches!(
            Checkpointer::parse_payload(&latest_raw(&stack)),
            Err(CheckpointError::Corrupt(_))
        ));
        assert_eq!(ck.load_or_recover().source, RecoverySource::Fresh);
    }

    #[test]
    fn health_field_round_trips_through_checkpoint() {
        let stack = memory_stack();
        let ck = stack.checkpointer();
        let mut runs = sample_runs();
        runs[0].health = WindowHealth {
            probes_total: 3,
            probes_failed: 1,
            probes_skipped: 1,
            records_accepted: 42,
            records_dropped: 7,
            retries: 2,
            errors: vec!["transient probe failure: timeout".to_string()],
        };
        ck.save_with_table(&runs, &table_of(&runs)).unwrap();
        let back = ck.load_or_recover().runs;
        assert!(back[0].health.degraded());
        assert_eq!(back[0].health.records_dropped, 7);
        assert_eq!(back[0].health.errors.len(), 1);
    }
}
