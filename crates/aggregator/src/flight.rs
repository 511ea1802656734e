//! The durable flight recorder: a crash-safe journal of operational
//! events, written alongside the checkpoint.
//!
//! The in-memory [`EventJournal`](telemetry::EventJournal) on the
//! recorder answers "what happened recently" while the process lives;
//! this module answers it after a crash. Every window-lifecycle, probe,
//! alert, and checkpoint event the aggregator emits is appended here as
//! one self-contained JSON payload, flushed before the call returns.
//!
//! Persistence goes through a [`StorageBackend`] log namespace keyed by
//! sequence number, which supplies the crash contract: appends are
//! flushed per record, so a crash can only tear the *final* record,
//! which the backend drops on reopen. Sequence numbers resume from the
//! newest surviving record, so post-restart events extend the same
//! sequence. The journal lives in the
//! [`StorageStack`](crate::store::StorageStack)'s `journal` namespace
//! (`StorageStack::recorder`), next to the checkpoint generations and
//! the run history it narrates.
//!
//! Write errors never propagate into the pipeline — losing a journal
//! line must not fail a classification cycle — but they are counted
//! ([`FlightRecorder::write_errors`]) so an operator can tell a quiet
//! journal from a broken one. Unbounded growth is handled by
//! [`FlightRecorder::prune`], which applies the namespace's retention
//! policy and reports exactly what was dropped.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};
use storage::{NamespaceProfile, Pruned, Retention, StorageBackend};
use telemetry::{Event, FieldValue};

/// Appends aggregator events to a durable journal. All methods take
/// `&self` (the backend is internally synchronized, counters are
/// atomic), so the recorder can be used from `&self` contexts like
/// [`Aggregator::checkpoint`](crate::Aggregator::checkpoint).
#[derive(Debug)]
pub struct FlightRecorder {
    backend: Arc<dyn StorageBackend>,
    ns: String,
    next_seq: AtomicU64,
    errors: AtomicU64,
}

impl FlightRecorder {
    /// A recorder journaling into namespace `ns` of a shared backend,
    /// pruned by `retention` (the [`StorageStack`](crate::store)
    /// wiring). Sequence numbering resumes after the records already
    /// present, so a restarted pipeline extends the journal instead of
    /// restarting it.
    pub fn with_backend(
        backend: Arc<dyn StorageBackend>,
        ns: impl Into<String>,
        retention: Retention,
    ) -> io::Result<FlightRecorder> {
        let ns = ns.into();
        backend
            .define(&ns, NamespaceProfile::log(retention))
            .map_err(|e| e.into_io())?;
        let next = backend
            .latest(&ns)
            .map_err(|e| e.into_io())?
            .map_or(0, |rec| rec.key + 1);
        Ok(FlightRecorder {
            backend,
            ns,
            next_seq: AtomicU64::new(next),
            errors: AtomicU64::new(0),
        })
    }

    /// Appends one event in the `aggregator` layer. See
    /// [`FlightRecorder::append_in_layer`].
    pub fn append(&self, name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
        self.append_in_layer("aggregator", name, fields);
    }

    /// Appends one event (wall-clock `ts_ns` since the UNIX epoch) under
    /// an explicit layer — the transport listener journals its
    /// `probe_session_*` provenance here as layer `transport`, storage
    /// retention journals as layer `storage` — and flushes. IO errors
    /// are swallowed and counted: journaling must never fail the
    /// pipeline.
    pub fn append_in_layer(
        &self,
        layer: &'static str,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        let ts_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let ev = Event {
            ts_ns,
            seq,
            layer,
            name,
            fields,
        };
        if self
            .backend
            .append(&self.ns, seq, ev.to_json().as_bytes())
            .is_err()
        {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Applies the journal's retention policy now, dropping the oldest
    /// records past the configured bounds. Returns exactly what was
    /// dropped so callers can count (and journal) the prune itself.
    pub fn prune(&self) -> storage::Result<Pruned> {
        self.backend.retain(&self.ns)
    }

    /// Number of journal records lost to IO errors so far.
    pub fn write_errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// The sequence number the next event will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{StorageStack, JOURNAL_NS};
    use std::fs;
    use std::path::PathBuf;
    use storage::{MemoryBackend, StorageConfig};

    fn memory_stack() -> StorageStack {
        StorageStack::open(&StorageConfig::memory()).unwrap()
    }

    /// A segment-backed stack config over a fresh temp directory.
    fn segment_config(tag: &str) -> (StorageConfig, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("roleclass-flight-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        (StorageConfig::new(dir.to_string_lossy()), dir)
    }

    fn journal_lines(backend: &dyn StorageBackend) -> Vec<String> {
        backend
            .scan(JOURNAL_NS, 0, u64::MAX)
            .unwrap()
            .into_iter()
            .map(|r| String::from_utf8(r.value).unwrap())
            .collect()
    }

    #[test]
    fn appends_sequenced_jsonl() {
        let stack = memory_stack();
        let fr = stack.recorder();
        fr.append(
            "roleclass_aggregator_window_started",
            vec![("window_start_ms", 0u64.into())],
        );
        fr.append("roleclass_aggregator_window_classified", vec![]);
        assert_eq!(fr.write_errors(), 0);
        let lines = journal_lines(stack.backend().as_ref());
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"seq\":0"));
        assert!(lines[1].contains("\"seq\":1"));
        assert!(lines[0].contains("\"layer\":\"aggregator\""));
    }

    #[test]
    fn seq_resumes_across_reopen() {
        let (config, dir) = segment_config("resume");
        {
            let stack = StorageStack::open(&config).unwrap();
            stack
                .recorder()
                .append("roleclass_aggregator_window_started", vec![]);
            stack
                .recorder()
                .append("roleclass_aggregator_window_classified", vec![]);
        }
        let stack = StorageStack::open(&config).unwrap();
        assert_eq!(stack.recorder().next_seq(), 2);
        stack
            .recorder()
            .append("roleclass_aggregator_window_started", vec![]);
        let lines = journal_lines(stack.backend().as_ref());
        assert_eq!(lines.len(), 3);
        assert!(lines[2].contains("\"seq\":2"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_record_is_dropped_and_seq_continues() {
        let (config, dir) = segment_config("torn");
        let seg = {
            let stack = StorageStack::open(&config).unwrap();
            for _ in 0..3 {
                stack
                    .recorder()
                    .append("roleclass_aggregator_window_started", vec![]);
            }
            fs::read_dir(dir.join(JOURNAL_NS))
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|x| x == "seg"))
                .max()
                .unwrap()
        };
        // Simulate a crash mid-append: the third record loses its tail.
        let len = fs::metadata(&seg).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        // Reopening resumes from the complete records only.
        let stack = StorageStack::open(&config).unwrap();
        assert_eq!(journal_lines(stack.backend().as_ref()).len(), 2);
        assert_eq!(stack.recorder().next_seq(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn layers_share_one_sequence() {
        let stack = memory_stack();
        let fr = stack.recorder();
        fr.append("roleclass_aggregator_window_started", vec![]);
        fr.append_in_layer(
            "transport",
            "roleclass_transport_probe_session_opened",
            vec![("session", 1u64.into())],
        );
        let lines = journal_lines(stack.backend().as_ref());
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"layer\":\"aggregator\""));
        assert!(lines[1].contains("\"layer\":\"transport\""));
        assert!(lines[1].contains("\"seq\":1"));
    }

    #[test]
    fn prune_bounds_journal_growth() {
        let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
        let fr = FlightRecorder::with_backend(
            Arc::clone(&backend),
            JOURNAL_NS,
            Retention::unbounded().keep_records(3),
        )
        .unwrap();
        for _ in 0..8 {
            fr.append("roleclass_aggregator_window_started", vec![]);
        }
        let pruned = fr.prune().unwrap();
        assert_eq!(pruned.records, 5);
        assert!(pruned.bytes > 0);
        let lines = journal_lines(backend.as_ref());
        assert_eq!(lines.len(), 3);
        // The newest events survive, and the sequence keeps climbing.
        assert!(lines[2].contains("\"seq\":7"));
        assert_eq!(fr.next_seq(), 8);
    }
}
