//! The timings of one pass, and the checkpoint and `/history` reads every
//! workload times the same way.

use crate::measure::{secs, Tally};
use crate::DAY_MS;
use aggregator::{CheckpointError, RunRecord, StorageStack};
use std::time::Instant;

/// Checkpoints and history reads repeated after a pass's last window.
/// `checkpoint_s` and `history_read_s` are medians over every repeat of
/// every pass: one sub-second reading is too noisy to compare, and a
/// checkpoint's fsyncs make it the noisiest of all.
const CHECKPOINT_REPS: usize = 9;
const READ_REPS: usize = 3;

/// Timings of one pass.
#[derive(Debug, Default)]
pub struct Pass {
    /// Per window: records in to correlated grouping out.
    pub windows_s: Vec<f64>,
    /// Persisting windows outside the window time (engine workloads).
    pub persist_s: f64,
    /// Checkpoint plus flush, every one taken, in order.
    pub checkpoints_s: Vec<f64>,
    /// Every history read of the pass.
    pub reads_s: f64,
    /// The repeats after the last window: checkpoint seconds, and
    /// `(summaries, at_or_before)` seconds per history read.
    pub final_checkpoints_s: Vec<f64>,
    pub final_reads_s: Vec<(f64, f64)>,
}

impl Pass {
    /// The whole timed part: windows, persisting, checkpoints, reads.
    pub fn run_s(&self) -> f64 {
        self.windows_s.iter().sum::<f64>()
            + self.persist_s
            + self.checkpoints_s.iter().sum::<f64>()
            + self.reads_s
    }

    /// Times one checkpoint (`save`) plus the flush that hardens it.
    pub fn checkpoint(
        &mut self,
        stack: &StorageStack,
        save: impl FnOnce() -> Result<(), CheckpointError>,
        tally: &mut Tally,
    ) -> f64 {
        let t0 = Instant::now();
        tally.op("checkpoint", save());
        tally.op("flush", stack.flush());
        let s = secs(t0);
        self.checkpoints_s.push(s);
        s
    }

    /// Times what `/history` answers — every summary, then the run
    /// current at the middle persisted window — and checks both against
    /// `runs`, the windows persisted so far.
    pub fn history_read(
        &mut self,
        stack: &StorageStack,
        runs: &[RunRecord],
        tally: &mut Tally,
    ) -> (f64, f64) {
        let t0 = Instant::now();
        let summaries = tally.op("history summaries", stack.runs().summaries());
        let summaries_s = secs(t0);
        let mid = &runs[runs.len() / 2];
        let t1 = Instant::now();
        let at = tally.op(
            "history at_or_before",
            stack.runs().at_or_before(mid.window.start_ms + DAY_MS / 2),
        );
        let at_s = secs(t1);
        self.reads_s += summaries_s + at_s;
        tally.check(
            summaries.is_some_and(|s| {
                s.iter()
                    .map(|s| s.window_start_ms)
                    .eq(runs.iter().map(|r| r.window.start_ms))
            }),
            || {
                format!(
                    "history summaries do not list the {} persisted windows",
                    runs.len()
                )
            },
        );
        tally.check(
            at.flatten()
                .is_some_and(|r| r.window == mid.window && r.grouping == mid.grouping),
            || {
                format!(
                    "at_or_before did not return the window starting at {}",
                    mid.window.start_ms
                )
            },
        );
        (summaries_s, at_s)
    }

    /// After the last window: repeated checkpoints, then repeated
    /// history reads.
    pub fn finish(
        &mut self,
        stack: &StorageStack,
        runs: &[RunRecord],
        save: impl Fn() -> Result<(), CheckpointError>,
        tally: &mut Tally,
    ) {
        for _ in 0..CHECKPOINT_REPS {
            let s = self.checkpoint(stack, &save, tally);
            self.final_checkpoints_s.push(s);
        }
        for _ in 0..READ_REPS {
            let r = self.history_read(stack, runs, tally);
            self.final_reads_s.push(r);
        }
    }
}
