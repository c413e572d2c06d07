//! Smoke test of the benchmark itself: every workload at toy size,
//! untraced and traced, must pass all its checks and print every
//! metric `BENCHMARK.json` names, with the unit it names.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");

/// `(name, unit)` of each entry of one `BENCHMARK.json` list (or just
/// the names, for `workloads`). A reader for this one flat file, not
/// for JSON in general.
fn entries(section: &str) -> Vec<(String, Option<String>)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits next to perfbench/");
    let start = text.find(&format!("\"{section}\": [")).expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("list closes")];
    let field = |item: &str, key: &str| {
        let at = item.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(item[at..at + item[at..].find('"')?].to_owned())
    };
    body.split('{')
        .skip(1)
        .map(|item| (field(item, "name").expect("every entry is named"), field(item, "unit")))
        .collect()
}

fn run(workload: &str, trace: u8) -> (bool, String) {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--size", "toy"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (out.status.success(), stdout)
}

fn check_workload(workload: &str) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let (ok, stdout) = run(workload, trace);
        let mut lines = stdout.lines().rev();
        let last = lines.next().expect("a result line");
        assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
        assert!(
            last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0, "),
            "{workload} --trace {trace}: {last}"
        );
        let record = lines.next().expect("a record line");
        for key in ["\"seed\": 7", "\"host_cpus\"", "\"git_revision\"", "\"fsync_policy\""] {
            assert!(record.contains(key), "{workload}: record lacks {key}");
        }
        for (name, unit) in entries(section) {
            let unit = unit.expect("metrics have units");
            let printed = format!("\"{name}\": {{\"value\": ");
            let at = last.find(&printed).unwrap_or_else(|| panic!("{workload}: no {name}"));
            let tail = &last[at + printed.len()..];
            let value: f64 = tail[..tail.find(',').expect("value ends")].parse().expect("number");
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            let object = &tail[..tail.find('}').expect("metric object closes")];
            assert!(object.ends_with(&format!("\"unit\": \"{unit}\"")), "{workload}: {name} unit");
            if trace == 0 {
                assert!(value > 0.0, "{workload}: end-to-end {name} is {value}");
            }
        }
    }
}

#[test]
fn workloads_match_benchmark_json() {
    let names: Vec<String> = entries("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, ["serve_mixed", "rule_batch"]);
}

#[test]
fn serve_mixed_toy() {
    check_workload("serve_mixed");
}

#[test]
fn serve_read_toy() {
    check_workload("serve_read");
}

#[test]
fn rule_batch_toy() {
    check_workload("rule_batch");
}

#[test]
fn unknown_workload_is_rejected_without_a_result() {
    let (ok, stdout) = run("no_such_workload", 0);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
}
