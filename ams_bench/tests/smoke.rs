//! Runs every workload at test scale, untraced and traced, and checks the
//! result line against `BENCHMARK.json`: every metric it names appears,
//! with its unit, and the run exits cleanly with all checks passing.

use std::path::Path;
use std::process::Command;

use serde::Value;

const WORKLOADS: [&str; 4] = ["sweep_f32", "sweep_i8", "train_ams", "serve_open"];

fn get<'v>(v: &'v Value, key: &str) -> &'v Value {
    match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no key {key:?}")),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Value::Seq(metrics) = get(&doc, list) else {
        panic!("{list} is not a list");
    };
    metrics
        .iter()
        .map(|m| {
            (
                str_of(get(m, "name")).to_string(),
                str_of(get(m, "unit")).to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: &str, dir: &Path, spans: &Path) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_ams_bench"))
        .args([
            "--smoke",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
        ])
        .args(["--trace", trace, "--trace-out"])
        .arg(spans)
        .current_dir(dir)
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let spans = dir.join("spans.jsonl");
    let _ = std::fs::remove_file(&spans);
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(list);
        for workload in WORKLOADS {
            let result = run(workload, trace, &dir, &spans);
            assert_eq!(get(&result, "correct"), &Value::Bool(true), "{workload}");
            assert_eq!(get(&result, "failed"), &Value::U64(0), "{workload}");
            let Value::Map(metrics) = get(&result, "metrics") else {
                panic!("metrics is not an object");
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| (name.clone(), str_of(get(m, "unit")).to_string()))
                .collect();
            assert_eq!(got, want, "{workload} (trace {trace}) metrics");
        }
    }
    // Every run appends one line: empty untraced, filled traced.
    let text = std::fs::read_to_string(&spans).expect("spans were written");
    let recorded: Vec<bool> = text
        .lines()
        .map(|line| {
            let v: Value = serde_json::from_str(line).expect("a spans line parses");
            matches!(get(&v, "spans"), Value::Seq(s) if !s.is_empty())
        })
        .collect();
    let want: Vec<bool> = [false, true]
        .iter()
        .flat_map(|&traced| [traced; WORKLOADS.len()])
        .collect();
    assert_eq!(recorded, want);
    assert!(
        !std::fs::read_dir(&dir)
            .expect("scratch directory lists")
            .any(|e| e.expect("entry").file_name() == ".ams_bench_tmp"),
        "set-up directories are removed"
    );
}
