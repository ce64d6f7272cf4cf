//! End-to-end tests of the `prfpga` binary: generate → schedule →
//! validate round-trips through the actual CLI surface.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_prfpga"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("prfpga_cli_test_{}_{name}", std::process::id()));
    p
}

#[test]
fn devices_lists_catalog() {
    let out = bin().arg("devices").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for part in ["xc7z010", "xc7z020", "xc7z045"] {
        assert!(stdout.contains(part), "missing {part} in:\n{stdout}");
    }
}

#[test]
fn generate_schedule_validate_roundtrip() {
    let inst = tmp("app.json");
    let sched = tmp("sched.json");

    let out = bin()
        .args(["generate", "--tasks", "15", "--seed", "3", "--out"])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .args(["schedule", "--algo", "pa", "--gantt", "--input"])
        .arg(&inst)
        .arg("--out")
        .arg(&sched)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("makespan"));
    assert!(stdout.contains("icap"));

    let out = bin()
        .args(["validate", "--input"])
        .arg(&inst)
        .arg("--schedule")
        .arg(&sched)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8(out.stdout).unwrap().contains("VALID"));

    let _ = std::fs::remove_file(&inst);
    let _ = std::fs::remove_file(&sched);
}

#[test]
fn every_algorithm_runs() {
    let inst = tmp("algos.json");
    let out = bin()
        .args(["generate", "--tasks", "10", "--seed", "7", "--out"])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(out.status.success());
    for algo in ["pa", "is1", "is5", "heft", "par", "portfolio"] {
        let out = bin()
            .args(["schedule", "--algo", algo, "--budget-ms", "50", "--input"])
            .arg(&inst)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{algo}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(&format!("{algo}: makespan")), "{stdout}");
    }
    let _ = std::fs::remove_file(&inst);
}

#[test]
fn portfolio_with_deadline_returns_schedule_and_trace() {
    let inst = tmp("portfolio.json");
    let out = bin()
        .args(["generate", "--tasks", "20", "--seed", "11", "--out"])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(out.status.success());

    // A tight deadline must still yield a validated schedule (possibly
    // degraded), never an error, and --trace must name the winner and
    // report the cancellation counters.
    let out = bin()
        .args([
            "schedule",
            "--portfolio",
            "--deadline-ms",
            "50",
            "--trace",
            "--input",
        ])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("portfolio winner:"), "{stdout}");
    assert!(stdout.contains("makespan"), "{stdout}");
    assert!(stdout.contains("deadline hits across members"), "{stdout}");

    // Without a deadline the race runs to completion: no degradation note.
    let out = bin()
        .args(["schedule", "--algo", "portfolio", "--input"])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("portfolio winner:"), "{stdout}");
    assert!(!stdout.contains("deadline fired mid-search"), "{stdout}");

    let _ = std::fs::remove_file(&inst);
}

#[test]
fn deadline_flag_works_for_every_algorithm() {
    let inst = tmp("deadline_algos.json");
    let out = bin()
        .args(["generate", "--tasks", "12", "--seed", "5", "--out"])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(out.status.success());
    // Generous deadline: every algorithm finishes cleanly under it.
    for algo in ["pa", "par", "is1", "heft"] {
        let out = bin()
            .args([
                "schedule",
                "--algo",
                algo,
                "--deadline-ms",
                "60000",
                "--budget-ms",
                "50",
                "--input",
            ])
            .arg(&inst)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{algo}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_file(&inst);
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("usage"));
}

#[test]
fn chain_topology_generation() {
    let inst = tmp("chain.json");
    let out = bin()
        .args([
            "generate",
            "--tasks",
            "8",
            "--topology",
            "chain",
            "--cores",
            "1",
            "--out",
        ])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = std::fs::read_to_string(&inst).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(parsed["graph"]["edges"].as_array().unwrap().len(), 7);
    let _ = std::fs::remove_file(&inst);
}

/// A platform with no fabrics, and a `device` that is not its platform's
/// relaxation, are load-time errors for every algorithm, not panics or
/// schedules against a second copy of the target.
#[test]
fn inconsistent_platforms_are_rejected() {
    use prfpga_model::ProblemInstance;

    let path = tmp("platform.json");
    let out = bin()
        .args([
            "generate",
            "--tasks",
            "60",
            "--seed",
            "4",
            "--platform",
            "dual-zedboard",
            "--out",
        ])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let inst = ProblemInstance::load(&path).unwrap();

    let mut no_fabrics = inst.clone();
    no_fabrics.architecture.platform.fabrics.clear();
    for t in &mut no_fabrics.graph.tasks {
        t.impls.retain(|&i| inst.impls.get(i).is_software());
    }
    let mut inflated = inst.clone();
    inflated.architecture.device.max_res = inst.architecture.device.max_res.scale_frac_floor(3, 2);
    let mut first_fabric = inst.clone();
    first_fabric.architecture.device = inst.architecture.fabric(0).clone();

    for (bad, expected) in [
        (no_fabrics, "no fabrics"),
        (inflated, "relaxation"),
        (first_fabric, "relaxation"),
    ] {
        bad.save(&path).unwrap();
        for algo in ["pa", "par", "is1", "heft", "portfolio"] {
            let out = bin()
                .args(["schedule", "--algo", algo, "--budget-ms", "50", "--input"])
                .arg(&path)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{algo}: {stderr}");
            assert!(stderr.contains(expected), "{algo}: {stderr}");
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// An instance file of a million `[` is a typed parse error (exit 1), not
/// a stack overflow.
#[test]
fn deeply_nested_input_is_a_typed_error() {
    let path = tmp("deep.json");
    std::fs::write(&path, "[".repeat(1_000_000)).unwrap();
    let out = bin()
        .args(["schedule", "--algo", "pa", "--input"])
        .arg(&path)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("error: instance parse error: recursion limit exceeded at line 1"),
        "{stderr}"
    );
    let _ = std::fs::remove_file(&path);
}
