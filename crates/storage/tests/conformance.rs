//! Runs the shared conformance suite (`storage::conformance`) against
//! both in-tree backends. A backend that diverges on any
//! observable behavior — key ordering, scans, snapshot generations,
//! retention accounting, torn-tail recovery — fails here with its name
//! in the assertion message.

use storage::conformance::{fixtures, run_full_suite, temp_base};

fn run(name: &str) {
    let base = temp_base(&format!("conf-{name}"));
    let fix = fixtures(&base)
        .into_iter()
        .find(|f| f.name == name)
        .expect("fixture");
    run_full_suite(&fix);
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn memory_backend_conforms() {
    run("memory");
}

#[test]
fn segment_backend_conforms() {
    run("segment");
}
