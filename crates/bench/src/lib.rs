//! Shared harness for the experiment binaries.
//!
//! Each paper table/figure has a binary in `src/bin/` (see DESIGN.md §4
//! for the index). This library holds the common pieces: plain-text
//! table/series rendering, wall-clock timing, and quick-mode handling so
//! integration tests can run the experiments at reduced scale.

use std::time::Instant;

/// Renders a fixed-width text table with a header row.
///
/// Column widths adapt to content; numeric alignment is the caller's
/// business (pre-format the cells).
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<width$}", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Runs `f`, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Peak resident set size (`VmHWM` in `/proc/self/status`) of this
/// process so far, in MiB; 0 where the file is unavailable. The mark
/// never falls, so a bench that runs its sizes in ascending order can
/// read it after each size and attribute the value to that size.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Returns `true` when the experiment should run at reduced scale
/// (`--quick` argument or `EXP_QUICK=1`).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
        || std::env::var("EXP_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false)
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, paper_artifact: &str) {
    println!("=== {id} — reproduces {paper_artifact} ===");
}

/// Engine worker-count override for the benchmark binaries: the
/// `ROLECLASS_THREADS` environment variable, parsed here at the binary
/// layer (the engine crates never read the environment — they take the
/// count through `roleclass::EngineConfig`). 0 means auto (one worker
/// per CPU core). Worker count never changes results, only throughput.
pub fn workers_from_env() -> usize {
    std::env::var("ROLECLASS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The classify-and-report opener most experiment binaries start with:
/// runs the full classification on a synthetic network, prints the
/// standard `<name>: H hosts -> G groups in S s (note)` line, and
/// returns the classification plus elapsed seconds.
///
/// Replaces the copy-pasted `timed(|| classify(...))` + `println!`
/// blocks the binaries used to carry individually.
pub fn classify_report(
    name: &str,
    net: &synthnet::SyntheticNetwork,
    params: &roleclass::Params,
    paper_note: &str,
) -> (roleclass::Classification, f64) {
    let (c, secs) =
        timed(|| roleclass::try_classify(&net.connsets, params).expect("invalid parameters"));
    let note = if paper_note.is_empty() {
        String::new()
    } else {
        format!(" ({paper_note})")
    };
    println!(
        "{name}: {} hosts -> {} groups in {secs:.3}s{note}\n",
        net.host_count(),
        c.grouping.group_count(),
    );
    (c, secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["Network", "Hosts"],
            &[
                vec!["Mazu".into(), "110".into()],
                vec!["BigCompany".into(), "3638".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Network"));
        assert!(lines[3].starts_with("BigCompany"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        render_table(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn peak_rss_is_non_negative_and_never_falls() {
        let first = peak_rss_mb();
        let buf = vec![1u8; 1 << 20];
        let second = peak_rss_mb();
        assert!(first >= 0.0);
        assert!(second >= first);
        drop(buf);
    }

    #[test]
    fn timed_measures() {
        let (v, secs) = timed(|| 42);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
