//! The benchmark's own checks: every workload runs clean at a tiny size,
//! traced and untraced, and `BENCHMARK.json` names exactly the metrics
//! and workloads the binary prints.

use std::time::Duration;

use perfbench::{setup, Size, COVERAGE_FLOOR_PCT, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;

#[test]
fn every_workload_runs_tiny_with_every_output_checked() {
    for name in WORKLOADS {
        // `serve-mixed` offers 4 requests/s: a second would hold about
        // four, too few for the summed coverage to be more than the luck
        // of which kinds they are.
        let seconds = if name == "serve-mixed" { 6 } else { 1 };
        let mut workload = setup(name, 7, seconds as f64, &Size::TINY).expect("a known workload");
        for traced in [false, true] {
            let out = workload.run(Duration::from_secs(seconds), traced);
            assert!(out.violations.is_empty(), "{name}: {:?}", out.violations);
            assert!(out.completed > 0, "{name}: nothing completed");
            assert_eq!(out.failed, 0, "{name}: ops failed");
            assert_eq!(out.latencies_ms.len() as u64, out.completed, "{name}");
            assert!(!out.ratios.is_empty(), "{name}: no schedule was checked");
            assert!(
                out.ratios.iter().all(|&r| r >= 1.0),
                "{name}: {:?}",
                out.ratios
            );
            assert_eq!(out.tracer.is_some(), traced, "{name}");
            if let Some(tracer) = &out.tracer {
                assert!(
                    !tracer.coverage(out.root).is_empty(),
                    "{name}: no root spans"
                );
                let coverage = tracer.coverage_pct(out.root);
                assert!(
                    coverage >= COVERAGE_FLOOR_PCT,
                    "{name}: leaf spans cover {coverage:.2}%"
                );
                assert!(!out.layers.is_empty(), "{name}: no per-layer metrics");
            }
        }
    }
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(setup("no-such-workload", 1, 1.0, &Size::TINY).is_none());
}

fn names(file: &Value, key: &str) -> Vec<(String, Option<String>)> {
    let Value::Object(map) = file else {
        panic!("BENCHMARK.json is not an object")
    };
    let Some(Value::Array(items)) = map.get(key) else {
        panic!("BENCHMARK.json has no `{key}` list")
    };
    items
        .iter()
        .map(|item| {
            let Value::Object(m) = item else {
                panic!("`{key}` entry is not an object")
            };
            let text = |k: &str| match m.get(k) {
                Some(Value::String(s)) => Some(s.clone()),
                _ => None,
            };
            (text("name").expect("every entry has a name"), text("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_names_what_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let file: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let pairs = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    };
    assert_eq!(names(&file, "end_to_end"), pairs(&END_TO_END));
    assert_eq!(names(&file, "per_layer"), pairs(&PER_LAYER));
    let workloads: Vec<String> = names(&file, "workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, WORKLOADS);
}
