//! What every workload shares: the operation tally behind `failed`, the
//! named metrics of the result line, sample statistics, the grouping
//! checks, the Rand statistic, and process-level readings.

use cluster::metrics::PairCounts;
use flow::{ConnectionSets, HostAddr};
use roleclass::Grouping;
use std::collections::HashMap;
use std::fmt::Display;
use std::path::Path;
use std::time::Instant;

/// Operations attempted and failed. A failure is a degraded window, a
/// failed output check, or a storage or transport error; each one is
/// reported on stderr as it happens.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Counts one fallible operation, passing its value through.
    pub fn op<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("operation failed: {what}: {e}");
                None
            }
        }
    }
}

/// One figure of the result line.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of figures, printed in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records `num / den` and prints it next to its numerator and
    /// denominator, so no ratio is read without its base.
    pub fn ratio(
        &mut self,
        name: &str,
        num: (&str, f64),
        den: (&str, f64),
        scale: f64,
        unit: &'static str,
    ) {
        let value = if den.1 > 0.0 {
            num.1 * scale / den.1
        } else {
            0.0
        };
        println!(
            "ratio {name} = {value:.6} {unit}  ({} {} / {} {}{})",
            num.0,
            num.1,
            den.0,
            den.1,
            if scale != 1.0 {
                format!(", x{scale:e}")
            } else {
                String::new()
            }
        );
        self.push(name, value, unit);
    }
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// The median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Checks that `grouping` partitions exactly the hosts of `cs`: every
/// host in one group, no group member outside the window.
pub fn partitions_window(grouping: &Grouping, cs: &ConnectionSets) -> bool {
    let mut members: Vec<HostAddr> = grouping
        .groups()
        .iter()
        .flat_map(|g| g.members.iter().copied())
        .collect();
    members.sort_unstable();
    let before = members.len();
    members.dedup();
    before == members.len() && members.iter().copied().eq(cs.hosts())
}

/// Pair counts between a reference partition and a grouping over the
/// hosts both label, from a contingency table: `O(hosts)`, where
/// `cluster::metrics::pair_counts` walks all `O(hosts²)` pairs and takes
/// tens of seconds at 20k hosts.
pub fn pair_counts(reference: &[Vec<HostAddr>], grouping: &Grouping) -> PairCounts {
    let label: HashMap<HostAddr, usize> = reference
        .iter()
        .enumerate()
        .flat_map(|(i, g)| g.iter().map(move |&h| (h, i)))
        .collect();
    let pairs = |n: u64| n * n.saturating_sub(1) / 2;
    let mut cell: HashMap<(usize, usize), u64> = HashMap::new();
    let mut reference_size = vec![0u64; reference.len()];
    let (mut n, mut same_grouping) = (0u64, 0u64);
    for (j, g) in grouping.groups().iter().enumerate() {
        let mut size = 0u64;
        for h in &g.members {
            if let Some(&i) = label.get(h) {
                *cell.entry((i, j)).or_default() += 1;
                reference_size[i] += 1;
                size += 1;
            }
        }
        n += size;
        same_grouping += pairs(size);
    }
    let ss: u64 = cell.values().map(|&c| pairs(c)).sum();
    let same_reference: u64 = reference_size.iter().map(|&c| pairs(c)).sum();
    let (sd, ds) = (same_reference - ss, same_grouping - ss);
    PairCounts {
        ss,
        sd,
        ds,
        dd: pairs(n) - ss - sd - ds,
    }
}

/// Peak resident set size (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The commit the checkout is at, read from `.git` without running git;
/// `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().into();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}
