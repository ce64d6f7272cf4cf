//! Protocol robustness corpus: every malformed, hostile, or oversized
//! request line yields a typed error response — never a panic, never a
//! hung or wedged connection. After each hostile line the same connection
//! must still answer a ping, which is the no-hang proof.

mod common;

use std::io::Write;

use common::{
    assert_alive, expect_err, expect_ok, fetch_stats, gen_request, quiet_config, recv,
    request_line, roundtrip, start,
};
use prfpga_model::service::{
    AlgoChoice, ErrorCode, InstanceSpec, ScheduleRequest, ServiceResponse,
};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Every entry: a hostile request line and the error code it must earn.
fn malformed_corpus() -> Vec<(&'static str, &'static str)> {
    vec![
        ("not json at all", "free text"),
        ("{\"op\":\"schedule\",\"id\":1", "truncated JSON"),
        ("[1,2,3]", "wrong top-level type"),
        ("{\"op\":\"launch\",\"id\":1}", "unknown op"),
        ("{\"op\":\"ping\",\"id\":1,\"extra\":true}", "unknown field"),
        ("{\"op\":\"ping\",\"id\":\"seven\"}", "wrong id type"),
        ("{\"op\":\"ping\"}", "missing id"),
        ("{\"op\":\"stats\",\"id\":-3}", "negative id"),
        (
            "{\"op\":\"schedule\",\"id\":2,\"algo\":\"pa\",\
             \"instance\":{\"gen\":{\"tasks\":10,\"seed\":1}},\"deadline_ms\":0}",
            "zero deadline",
        ),
        (
            "{\"op\":\"schedule\",\"id\":2,\"algo\":\"pa\",\
             \"instance\":{\"gen\":{\"tasks\":10,\"seed\":1}},\"deadline_ms\":-50}",
            "negative deadline",
        ),
        (
            "{\"op\":\"schedule\",\"id\":2,\"algo\":\"par\",\
             \"instance\":{\"gen\":{\"tasks\":10,\"seed\":1}},\"budget_ms\":0}",
            "zero budget",
        ),
        (
            "{\"op\":\"schedule\",\"id\":3,\"algo\":\"magic\",\
             \"instance\":{\"gen\":{\"tasks\":10,\"seed\":1}}}",
            "unknown algorithm",
        ),
        (
            "{\"op\":\"schedule\",\"id\":3,\"algo\":\"is-0\",\
             \"instance\":{\"gen\":{\"tasks\":10,\"seed\":1}}}",
            "is-k with k = 0",
        ),
        (
            "{\"op\":\"schedule\",\"id\":4,\"algo\":\"pa\",\
             \"instance\":{\"gen\":{\"tasks\":0,\"seed\":1}}}",
            "zero tasks",
        ),
        (
            "{\"op\":\"schedule\",\"id\":4,\"algo\":\"pa\",\
             \"instance\":{\"gen\":{\"tasks\":200000,\"seed\":1}}}",
            "tasks beyond the generator cap",
        ),
        (
            "{\"op\":\"schedule\",\"id\":4,\"algo\":\"pa\",\
             \"instance\":{\"gen\":{\"tasks\":10,\"seed\":1,\"cores\":0}}}",
            "zero cores",
        ),
        (
            "{\"op\":\"schedule\",\"id\":5,\"algo\":\"pa\",\"instance\":{}}",
            "empty instance spec",
        ),
        (
            "{\"op\":\"schedule\",\"id\":5,\"algo\":\"pa\",\
             \"instance\":{\"gen\":{\"tasks\":10,\"seed\":1},\"inline\":{}}}",
            "both inline and gen",
        ),
        (
            "{\"op\":\"schedule\",\"id\":6,\"algo\":\"pa\",\
             \"instance\":{\"gen\":{\"tasks\":10,\"seed\":1}},\
             \"events\":[{\"Cancel\":{\"task\":0}}]}",
            "events on a non-repair algorithm",
        ),
        (
            "{\"op\":\"repair\",\"id\":6,\"algo\":\"pa\",\
             \"instance\":{\"gen\":{\"tasks\":10,\"seed\":1}}}",
            "repair op with a non-repair algorithm",
        ),
        (
            "{\"op\":\"schedule\",\"id\":7,\"algo\":\"pa\",\"instance\":7}",
            "instance of the wrong type",
        ),
    ]
}

#[test]
fn malformed_corpus_yields_typed_errors_and_connection_survives() {
    let (connector, handle) = start(quiet_config(1));
    let mut client = connector.connect().expect("connect");

    let corpus = malformed_corpus();
    let cases = corpus.len() as u64;
    for (i, (line, what)) in corpus.into_iter().enumerate() {
        let resp = roundtrip(&mut client, line);
        match resp {
            ServiceResponse::Err { error, .. } => assert_eq!(
                error.code,
                ErrorCode::Malformed,
                "case {i} ({what}): wrong code, message {:?}",
                error.message
            ),
            other => panic!("case {i} ({what}): expected malformed error, got {other:?}"),
        }
        // The connection must survive every hostile line.
        assert_alive(&mut client, 1000 + i as u64);
    }

    let stats = handle.stop();
    assert_eq!(stats.malformed, cases, "every corpus line counted");
    assert_eq!(stats.admitted, 0, "nothing hostile reached the queue");
}

#[test]
fn invalid_utf8_line_is_a_typed_error() {
    let (connector, handle) = start(quiet_config(1));
    let mut client = connector.connect().expect("connect");

    client.writer.write_all(&[0xFF, 0xFE, 0x80, b'\n']).unwrap();
    client.writer.flush().unwrap();
    expect_err(recv(&mut client), ErrorCode::Malformed);
    assert_alive(&mut client, 1);

    drop(client);
    assert!(handle.stop().malformed >= 1);
}

#[test]
fn oversized_payload_is_rejected_and_framing_resyncs() {
    let config = prfpga_server::ServerConfig {
        max_frame_bytes: 1024,
        ..quiet_config(1)
    };
    let (connector, handle) = start(config);
    let mut client = connector.connect().expect("connect");

    // One giant line: rejected exactly once, remainder discarded.
    let huge = format!(
        "{{\"op\":\"ping\",\"id\":1,\"pad\":\"{}\"}}",
        "x".repeat(8192)
    );
    expect_err(roundtrip(&mut client, &huge), ErrorCode::Oversized);
    assert_alive(&mut client, 2);

    // A request just under the bound still parses.
    assert_alive(&mut client, 3);
    drop(client);
    assert_eq!(handle.stop().malformed, 1);
}

/// A ~1 MB frame of `[` stays under the frame bound, so the parser sees
/// it whole. Its nesting limit rejects it with a typed error instead of
/// overflowing the connection thread's stack.
#[test]
fn deeply_nested_frame_is_a_typed_error() {
    let (connector, handle) = start(quiet_config(1));
    let mut client = connector.connect().expect("connect");

    match roundtrip(&mut client, &"[".repeat(1 << 20)) {
        ServiceResponse::Err { error, .. } => {
            assert_eq!(error.code, ErrorCode::Malformed);
            assert!(
                error
                    .message
                    .starts_with("recursion limit exceeded at line 1"),
                "{}",
                error.message
            );
        }
        other => panic!("expected malformed error, got {other:?}"),
    }
    assert_alive(&mut client, 1);

    drop(client);
    assert_eq!(handle.stop().malformed, 1);
}

#[test]
fn inline_instance_that_fails_validation_is_a_typed_rejection() {
    let (connector, handle) = start(quiet_config(1));
    let mut client = connector.connect().expect("connect");

    // Parses fine, fails `ProblemInstance::validate`: no processors.
    let mut inst = prfpga_gen::service_instance(8, 1, None, 2).expect("generate");
    inst.architecture.num_processors = 0;
    let line = request_line(&ScheduleRequest {
        id: 9,
        algo: AlgoChoice::Pa,
        instance: InstanceSpec::Inline(Box::new(inst)),
        deadline_ms: None,
        budget_ms: None,
        events: Vec::new(),
    });
    expect_err(roundtrip(&mut client, &line), ErrorCode::InvalidInstance);
    assert_alive(&mut client, 10);

    drop(client);
    handle.stop();
}

/// An inline instance whose architecture contradicts its own platform —
/// no fabrics at all, or a `device` that is one fabric instead of the
/// platform's relaxation — is an `invalid_instance` reply, and the
/// connection keeps serving.
#[test]
fn inconsistent_platform_is_a_typed_rejection() {
    let (connector, handle) = start(quiet_config(1));
    let mut client = connector.connect().expect("connect");

    let inst = prfpga_gen::service_instance(60, 4, Some("dual-zedboard"), 2).expect("generate");
    let mut no_fabrics = inst.clone();
    no_fabrics.architecture.platform.fabrics.clear();
    for t in &mut no_fabrics.graph.tasks {
        t.impls.retain(|&i| inst.impls.get(i).is_software());
    }
    let mut first_fabric = inst.clone();
    first_fabric.architecture.device = inst.architecture.fabric(0).clone();
    for (id, bad) in [(13, no_fabrics), (15, first_fabric)] {
        let line = request_line(&ScheduleRequest {
            id,
            algo: AlgoChoice::Portfolio,
            instance: InstanceSpec::Inline(Box::new(bad)),
            deadline_ms: None,
            budget_ms: None,
            events: Vec::new(),
        });
        expect_err(roundtrip(&mut client, &line), ErrorCode::InvalidInstance);
        assert_alive(&mut client, id + 1);
    }

    drop(client);
    handle.stop();
}

#[test]
fn unknown_platform_is_a_typed_rejection() {
    let (connector, handle) = start(quiet_config(1));
    let mut client = connector.connect().expect("connect");

    let line = "{\"op\":\"schedule\",\"id\":11,\"algo\":\"pa\",\
                \"instance\":{\"gen\":{\"tasks\":10,\"seed\":1,\"platform\":\"nonesuch\"}}}";
    expect_err(roundtrip(&mut client, line), ErrorCode::InvalidInstance);
    assert_alive(&mut client, 12);

    drop(client);
    handle.stop();
}

/// A valid request sandwiched between hostile ones still schedules: the
/// error path leaves no state behind on the connection or the worker.
#[test]
fn valid_request_between_hostile_lines_still_schedules() {
    let (connector, handle) = start(quiet_config(1));
    let mut client = connector.connect().expect("connect");

    expect_err(roundtrip(&mut client, "garbage"), ErrorCode::Malformed);
    let reply = expect_ok(roundtrip(
        &mut client,
        &gen_request(21, AlgoChoice::Pa, 16, 5, None, None),
    ));
    assert_eq!(reply.id, 21);
    let inst = prfpga_gen::service_instance(16, 5, None, 2).unwrap();
    prfpga_sim::validate_schedule_sweep(&inst, &reply.schedule).expect("valid schedule");
    expect_err(roundtrip(&mut client, "{\"op\":"), ErrorCode::Malformed);

    let stats = fetch_stats(&mut client, 22);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.malformed, 2);

    drop(client);
    handle.stop();
}

/// Seeded random-bytes fuzz at the connection level: hundreds of garbage
/// lines, each answered (when non-blank) with a typed error; a trailing
/// ping proves the connection never wedges. Complements the chunking fuzz
/// in the frame decoder's unit tests.
#[test]
fn fuzzed_garbage_lines_never_wedge_the_connection() {
    let (connector, handle) = start(quiet_config(1));
    let mut client = connector.connect().expect("connect");
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E2F_F002);

    for round in 0..300u64 {
        let len = rng.random_range(1..200usize);
        // Lead with '{' so the line is never blank and never valid JSON
        // by accident; the tail mixes printable ASCII and raw bytes.
        let mut line = vec![b'{'];
        for _ in 0..len {
            let byte = match rng.random_range(0..4u32) {
                0 => rng.random_range(0..=255u32) as u8,
                _ => rng.random_range(0x20..0x7Fu32) as u8,
            };
            if byte != b'\n' && byte != b'\r' {
                line.push(byte);
            }
        }
        line.push(b'\n');
        client.writer.write_all(&line).unwrap();
        client.writer.flush().unwrap();

        match recv(&mut client) {
            ServiceResponse::Err { .. } => {}
            other => panic!("round {round}: garbage earned {other:?}"),
        }
    }
    assert_alive(&mut client, 99);

    drop(client);
    let stats = handle.stop();
    assert_eq!(stats.malformed, 300, "every garbage line counted");
}
