//! The shipped instance fixtures in `instances/` load, validate, and
//! schedule — guarding both the files and JSON format stability.

use prfpga::prelude::*;

fn fixtures() -> Vec<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("instances");
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .expect("instances/ directory ships with the repo")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    out.sort();
    assert!(out.len() >= 5, "expected the documented fixture set");
    out
}

#[test]
fn fixtures_load_and_validate() {
    for path in fixtures() {
        let inst =
            ProblemInstance::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        inst.validate().unwrap();
    }
}

/// The JSON encoding is stable: every fixture re-serializes to exactly its
/// committed bytes (single-device files carry no `platform` key).
#[test]
fn fixtures_reserialize_byte_identically() {
    for path in fixtures() {
        let text = std::fs::read_to_string(&path).unwrap();
        let inst = ProblemInstance::from_json(&text).unwrap();
        assert!(
            inst.to_json() == text,
            "{} re-serializes differently",
            path.display()
        );
    }
}

#[test]
fn fixtures_schedule_with_pa() {
    let pa = PaScheduler::new(SchedulerConfig::default());
    for path in fixtures() {
        let inst = ProblemInstance::load(&path).unwrap();
        let s = pa.schedule(&inst).unwrap();
        validate_schedule(&inst, &s).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(s.makespan() > 0);
    }
}

#[test]
fn comm_fixture_really_carries_costs() {
    let path = fixtures()
        .into_iter()
        .find(|p| p.to_string_lossy().contains("comm"))
        .expect("comm fixture present");
    let inst = ProblemInstance::load(&path).unwrap();
    assert!(inst.graph.edge_costs.iter().any(|&c| c > 0));
}
