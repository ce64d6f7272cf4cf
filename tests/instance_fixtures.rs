//! The shipped instance fixtures in `instances/` load, validate, and
//! schedule — guarding both the files and JSON format stability.

use prfpga::model::ModelError;
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

/// Parses `text` as an instance, turning a panic into a test failure
/// that names the input.
fn parse_without_panic(text: &str, what: &str) -> Result<ProblemInstance, ModelError> {
    std::panic::catch_unwind(|| ProblemInstance::from_json(text))
        .unwrap_or_else(|_| panic!("{what}: from_json panicked"))
}

/// Malformed-input corpus built from one fixture: every byte-prefix
/// truncation and single-byte substitutions at 500 seeded offsets. Each
/// input yields an instance or a typed `ModelError`, never a panic.
#[test]
fn malformed_fixture_bytes_yield_typed_errors() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("instances/chain_10t_s3.json");
    let text = std::fs::read_to_string(path).unwrap();
    assert!(
        text.is_ascii(),
        "substitutions below assume one byte per char"
    );

    for len in 0..text.len() {
        match parse_without_panic(&text[..len], &format!("prefix of {len} bytes")) {
            Err(ModelError::Parse(_)) => {}
            other => panic!("prefix of {len} bytes: expected a parse error, got {other:?}"),
        }
    }

    const SUBSTITUTES: &[u8] = b"{}[]\",:-+0123456789.eEtfnu\\ x";
    let mut state = 0x5EED_2016u64;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize
    };
    let (mut parsed, mut rejected) = (0, 0);
    for _ in 0..500 {
        let at = next() % text.len();
        let byte = SUBSTITUTES[next() % SUBSTITUTES.len()];
        let mut bytes = text.clone().into_bytes();
        bytes[at] = byte;
        let mutated = String::from_utf8(bytes).unwrap();
        match parse_without_panic(&mutated, &format!("byte {at} set to {:?}", byte as char)) {
            Ok(_) => parsed += 1,
            Err(_) => rejected += 1,
        }
    }
    // Most substitutions break the syntax; some (a digit for a digit, a
    // space for a space) leave a valid instance.
    assert!(
        parsed > 0 && rejected > parsed,
        "{parsed} parsed, {rejected} rejected"
    );

    // Number forms JSON does not allow, in place of the processor count.
    let field = "\"num_processors\": 2";
    assert!(text.contains(field));
    for bad in ["01", "-01", "1.", "-.5"] {
        let mutated = text.replacen(field, &format!("\"num_processors\": {bad}"), 1);
        match parse_without_panic(&mutated, bad) {
            Err(ModelError::Parse(msg)) => {
                assert!(msg.starts_with("invalid number at line"), "{bad}: {msg}")
            }
            other => panic!("{bad}: expected a parse error, got {other:?}"),
        }
    }
}

/// Names may hold any character JSON allows raw, DEL and the C1 controls
/// included: the encoder writes them unescaped and the parser reads them
/// back.
#[test]
fn names_with_del_and_c1_controls_round_trip() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("instances/chain_10t_s3.json");
    let mut inst = ProblemInstance::load(&path).unwrap();
    inst.graph.tasks[0].name = "del\u{7f}nel\u{85}".to_string();
    let json = inst.to_json();
    assert!(json.contains("del\u{7f}nel\u{85}"), "written raw");
    assert_eq!(ProblemInstance::from_json(&json).unwrap(), inst);
}

/// Nesting is capped, so a deep document is a parse error rather than a
/// stack overflow.
#[test]
fn deeply_nested_input_is_a_parse_error() {
    match ProblemInstance::from_json(&"[".repeat(1_000_000)) {
        Err(ModelError::Parse(msg)) => {
            assert!(
                msg.starts_with("recursion limit exceeded at line 1"),
                "{msg}"
            )
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
}
