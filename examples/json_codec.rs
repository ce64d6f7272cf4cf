//! Times the JSON layer alone over the paper suite
//! (`SuiteConfig::default()` on the ZedBoard, 100 instances) and PA's
//! schedules for it: per pass, text → types (parse) and types → text
//! (encode), in ms and MB/s. Instances are pretty JSON as
//! `ProblemInstance::to_json` writes them, schedules compact JSON as the
//! CLI and the server send them.
//!
//! ```text
//! cargo run --release --example json_codec [passes]
//! ```
//!
//! The first pass checks that every value reads back equal to itself.

use std::hint::black_box;
use std::time::Instant;

use prfpga::prelude::*;

fn main() {
    let passes: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("passes must be a number"))
        .unwrap_or(5);
    let suite: Vec<ProblemInstance> = SuiteConfig::default()
        .generate(&Architecture::zedboard_pr())
        .into_iter()
        .flatten()
        .collect();
    let pa = PaScheduler::new(SchedulerConfig::default());
    let schedules: Vec<Schedule> = suite
        .iter()
        .map(|inst| pa.schedule(inst).expect("PA schedules the suite"))
        .collect();
    let instance_text: Vec<String> = suite.iter().map(ProblemInstance::to_json).collect();
    let schedule_text: Vec<String> = schedules
        .iter()
        .map(|s| serde_json::to_string(s).expect("schedules serialize"))
        .collect();
    let bytes: usize = instance_text
        .iter()
        .chain(&schedule_text)
        .map(String::len)
        .sum();
    let mb = bytes as f64 / 1e6;
    println!(
        "{} instances + {} schedules, {mb:.2} MB per pass",
        suite.len(),
        schedules.len()
    );
    println!("pass  parse_ms  parse_MB/s  encode_ms  encode_MB/s");

    for pass in 0..passes {
        let t0 = Instant::now();
        let instances: Vec<ProblemInstance> = instance_text
            .iter()
            .map(|t| serde_json::from_str(t).expect("instances parse"))
            .collect();
        let parsed: Vec<Schedule> = schedule_text
            .iter()
            .map(|t| serde_json::from_str(t).expect("schedules parse"))
            .collect();
        let parse_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        for inst in &instances {
            black_box(inst.to_json());
        }
        for s in &parsed {
            black_box(serde_json::to_string(s).expect("schedules serialize"));
        }
        let encode_s = t1.elapsed().as_secs_f64();

        if pass == 0 {
            assert!(instances == suite, "an instance did not read back equal");
            assert!(parsed == schedules, "a schedule did not read back equal");
        }
        println!(
            "{pass:>4}  {:>8.2}  {:>10.1}  {:>9.2}  {:>11.1}",
            parse_s * 1e3,
            mb / parse_s,
            encode_s * 1e3,
            mb / encode_s
        );
    }
}
