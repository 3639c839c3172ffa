//! Memory guard for snapshot saves: a save streams the container to the
//! file, so it must not hold a copy of the file in memory. The test reads
//! the process's peak resident set (`VmHWM`), so this file holds this
//! one test and its process runs nothing else.

#![cfg(target_os = "linux")]

use voronoi_area_query::core::{snapshot, AreaQueryEngine};
use voronoi_area_query::workload::{generate, Distribution};

/// This process's peak resident set, in bytes.
fn vm_hwm() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmHWM line in kB");
    kb * 1024
}

/// A buffered save staged the whole file (and more) in memory, raising
/// the peak by about three times the file's size at 10⁵ points. A
/// streaming save stages a few fixed buffers.
#[test]
fn saving_a_snapshot_does_not_hold_the_file_in_memory() {
    let engine = AreaQueryEngine::build(&generate(100_000, Distribution::Uniform, 0x4D45));
    let path =
        std::env::temp_dir().join(format!("vaq-snapshot-memory-{}.snap", std::process::id()));
    let before = vm_hwm();
    snapshot::save_engine(&engine, &path).expect("save");
    let raised = vm_hwm() - before;
    let file = std::fs::metadata(&path).expect("the saved file").len();
    std::fs::remove_file(&path).expect("remove the saved file");
    assert!(
        raised < file / 2,
        "the save raised VmHWM by {raised} bytes for a {file}-byte file"
    );
}
