//! The `analyze` binary's stdout contract: with `--json -` or
//! `--sarif -`, stdout is exactly one parseable document and the
//! human-readable reports go to stderr.

use std::process::{Command, Output};

use simple::json::{self, Value};

fn analyze(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(args)
        .output()
        .expect("analyze runs")
}

fn stdout_document(args: &[&str]) -> Value {
    let out = analyze(args);
    assert!(out.status.success(), "{args:?} exited {}", out.status);
    let text = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{args:?}: {e}\n{text}"));
    let human = String::from_utf8_lossy(&out.stderr);
    assert!(
        human.contains("== Version 4"),
        "no reports on stderr:\n{human}"
    );
    doc
}

#[test]
fn json_to_stdout_is_one_document() {
    let doc = stdout_document(&["v4", "--json", "-"]);
    let reports = doc
        .get("reports")
        .and_then(Value::as_array)
        .expect("reports");
    assert_eq!(reports.len(), 1);
}

#[test]
fn sarif_to_stdout_is_one_document() {
    let doc = stdout_document(&["v4", "--sarif", "-"]);
    assert_eq!(doc.get("version").and_then(Value::as_str), Some("2.1.0"));
}

#[test]
fn json_and_sarif_cannot_share_stdout() {
    let out = analyze(&["v4", "--json", "-", "--sarif", "-"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
