//! Runs a smoke-size version of every workload, checks that the printed
//! metric names are exactly the ones `BENCHMARK.json` declares, and that
//! the outcome digests repeat across processes with the same seed.

use std::process::Command;

const MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// The `"name"` values inside the JSON array that follows `"key":`.
fn declared_names(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let rest = &json[start..];
    let open = rest.find('[').expect("array opens");
    let close = rest.find(']').expect("array closes");
    let body = &rest[open..close];
    body.match_indices("\"name\"")
        .map(|(i, _)| {
            let after = &body[i + "\"name\"".len()..];
            let q1 = after.find('"').expect("name value opens") + 1;
            let q2 = after[q1..].find('"').expect("name value closes") + q1;
            after[q1..q2].to_string()
        })
        .collect()
}

/// Metric names of a result line, in printed order.
fn printed_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    metrics
        .match_indices(": {\"value\"")
        .map(|(i, _)| {
            let head = &metrics[..i - 1];
            let q = head.rfind('"').expect("metric name opens");
            head[q + 1..].to_string()
        })
        .collect()
}

struct Run {
    result: String,
    digest: String,
}

fn run(workload: &str, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_dmbench"))
        .args(["--smoke", "--workload", workload, "--seed", "7"])
        .args(["--seconds", "0", "--trace", &trace.to_string()])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = stdout.lines().last().expect("a result line").to_string();
    // "<workload>: digest <hex> over <n> points, ...": keep the hex.
    let digest = stdout
        .lines()
        .find(|l| l.contains(" over ") && l.contains(": digest "))
        .and_then(|l| l.split_whitespace().nth(2))
        .expect("a combined digest line")
        .to_string();
    Run { result, digest }
}

#[test]
fn every_workload_prints_the_declared_metrics_and_repeats() {
    let manifest = std::fs::read_to_string(MANIFEST).expect("BENCHMARK.json readable");
    let end_to_end = declared_names(&manifest, "end_to_end");
    let per_layer = declared_names(&manifest, "per_layer");
    let workloads = declared_names(&manifest, "workloads");
    assert_eq!(workloads, ["tight_ledger", "roomy_hold", "faulted_racks"]);
    for w in &workloads {
        let untraced = run(w, 0);
        assert!(
            untraced.result.starts_with("{\"correct\": true,"),
            "{w}: {}",
            untraced.result
        );
        assert!(
            untraced.result.contains("\"failed\": 0,"),
            "{w}: {}",
            untraced.result
        );
        assert_eq!(
            printed_names(&untraced.result),
            end_to_end,
            "{w} end-to-end names"
        );
        let again = run(w, 0);
        assert_eq!(untraced.digest, again.digest, "{w}: digest must repeat");
        let traced = run(w, 1);
        assert!(
            traced.result.starts_with("{\"correct\": true,"),
            "{w}: {}",
            traced.result
        );
        assert_eq!(
            printed_names(&traced.result),
            per_layer,
            "{w} per-layer names"
        );
        assert_eq!(
            untraced.digest, traced.digest,
            "{w}: observers must not move outcomes"
        );
    }
}
