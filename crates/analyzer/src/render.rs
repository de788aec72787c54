//! Machine-readable renderers for diagnostic reports: JSON and SARIF.
//!
//! The human rendering lives on [`Report::render`]; this module adds
//! the two artifact formats the CI gate uploads:
//!
//! * [`report_json`] / [`reports_json`] — a plain JSON object per
//!   report (subject, counts, findings with structured locations);
//! * [`sarif`] — a minimal [SARIF 2.1.0] log: one run, one rule per
//!   distinct diagnostic code, one result per finding, with the
//!   structured [`Location`] mapped to a SARIF logical location.
//!
//! Both are [`simple::json::Value`] trees with a stable key order,
//! rendered by the workspace's one JSON writer — determinism matters
//! more than generality because the V1–V4 outputs are golden-snapshot
//! tested.
//!
//! [SARIF 2.1.0]: https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html

use std::collections::BTreeMap;
use std::fmt::Write as _;

use simple::json::Value;

use crate::diag::{Location, Report, Severity};

fn location(location: &Location) -> Value {
    let mut fields = vec![("kind", location.kind().into())];
    match location {
        Location::None => {}
        Location::Config { field, value } => {
            fields.push(("field", field.as_str().into()));
            fields.push(("value", value.as_str().into()));
        }
        Location::Token { token } => fields.push(("token", (*token).into())),
        Location::Sim { time_ns, channel } => {
            fields.push(("time_ns", (*time_ns).into()));
            fields.push(("channel", (*channel).into()));
        }
        Location::Model { path } => {
            fields.push(("path", path.iter().map(String::as_str).collect()));
        }
    }
    Value::object(fields)
}

fn report_value(report: &Report) -> Value {
    let findings = report.findings.iter().map(|f| {
        Value::object([
            ("code", f.code.into()),
            ("severity", f.severity.to_string().into()),
            ("message", f.message.as_str().into()),
            ("span", f.span.as_str().into()),
            ("location", location(&f.location)),
            ("notes", f.notes.iter().map(String::as_str).collect()),
            ("helps", f.helps.iter().map(String::as_str).collect()),
        ])
    });
    Value::object([
        ("subject", report.subject.as_str().into()),
        ("errors", report.errors().into()),
        ("warnings", report.warnings().into()),
        ("info", report.count(Severity::Info).into()),
        ("findings", findings.collect()),
    ])
}

/// Renders one report as a standalone JSON document.
pub fn report_json(report: &Report) -> String {
    format!("{}\n", report_value(report))
}

/// Renders several reports as one JSON document: an object with a
/// `reports` array (the `analyze --json` artifact).
pub fn reports_json(reports: &[Report]) -> String {
    reports_json_with_timings(reports, &[])
}

/// Per-subject analysis cost entry for the `analyze --json` artifact:
/// the subject string plus `(layer key, milliseconds)` pairs, rendered
/// as a top-level `timings` array. Wall times vary run to run, so the
/// golden snapshots use [`reports_json`] (no `timings` key) and the CLI
/// adds this block only to its written artifacts.
pub type SubjectTimings = (String, Vec<(&'static str, f64)>);

/// [`reports_json`] plus a `timings` array reporting per-layer analysis
/// wall time for each subject, in milliseconds with three decimals. An
/// empty `timings` slice renders the exact [`reports_json`] document.
pub fn reports_json_with_timings(reports: &[Report], timings: &[SubjectTimings]) -> String {
    let mut root = vec![
        ("schema_version", 1u64.into()),
        ("reports", reports.iter().map(report_value).collect()),
    ];
    if !timings.is_empty() {
        let timings = timings.iter().map(|(subject, layers)| {
            let layers = layers
                .iter()
                .map(|&(key, ms)| (key, Value::Number(format!("{ms:.3}"))));
            Value::object(
                [("subject", subject.as_str().into())]
                    .into_iter()
                    .chain(layers),
            )
        });
        root.push(("timings", timings.collect()));
    }
    format!("{}\n", Value::object(root))
}

/// Renders reports as one SARIF 2.1.0 log with a single run.
///
/// Rules are collected from the distinct diagnostic codes (sorted, so
/// the output is deterministic); each finding becomes a `result` whose
/// message concatenates the headline with its note/help lines and whose
/// logical location carries [`Location::logical_name`].
pub fn sarif(reports: &[Report]) -> String {
    // One rule per code, with the first-seen message as description.
    let mut rules: BTreeMap<&str, &str> = BTreeMap::new();
    for report in reports {
        for f in &report.findings {
            rules.entry(f.code).or_insert(&f.message);
        }
    }
    let rule_index: BTreeMap<&str, usize> =
        rules.keys().enumerate().map(|(i, &c)| (c, i)).collect();
    let text = |s: &str| Value::object([("text", s.into())]);

    let mut results: Vec<Value> = Vec::new();
    for report in reports {
        for f in &report.findings {
            let mut message = f.message.clone();
            for n in &f.notes {
                let _ = write!(message, "\nnote: {n}");
            }
            for h in &f.helps {
                let _ = write!(message, "\nhelp: {h}");
            }
            let logical = if f.span.is_empty() {
                report.subject.clone()
            } else {
                f.span.clone()
            };
            let qualified = match &f.location {
                Location::None => logical,
                loc => loc.logical_name(),
            };
            let logical_location = Value::object([("fullyQualifiedName", qualified.into())]);
            results.push(Value::object([
                ("ruleId", f.code.into()),
                ("ruleIndex", rule_index[f.code].into()),
                ("level", f.severity.sarif_level().into()),
                ("message", text(&message)),
                (
                    "locations",
                    Value::Array(vec![Value::object([(
                        "logicalLocations",
                        Value::Array(vec![logical_location]),
                    )])]),
                ),
            ]));
        }
    }
    let rules = rules.iter().map(|(&code, &desc)| {
        Value::object([("id", code.into()), ("shortDescription", text(desc))])
    });
    let driver = Value::object([
        ("name", "suprenum-analyzer".into()),
        (
            "informationUri",
            "https://github.com/suprenum-monitor/suprenum-monitor".into(),
        ),
        ("rules", rules.collect()),
    ]);
    let run = Value::object([
        ("tool", Value::object([("driver", driver)])),
        ("results", Value::Array(results)),
    ]);
    let log = Value::object([
        (
            "$schema",
            "https://json.schemastore.org/sarif-2.1.0.json".into(),
        ),
        ("version", "2.1.0".into()),
        ("runs", Value::Array(vec![run])),
    ]);
    format!("{log}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Finding, Report};

    fn sample() -> Report {
        let mut r = Report::new("Version 3 (agents both, bundle 50)");
        r.push(
            Finding::error("AN-PROTO-002", "queue \"too small\"")
                .at_config("app.pixel_queue_capacity", 768)
                .note("demand is 2250")
                .help("raise the constant"),
        );
        r.push(Finding::info("AN-MODEL-003", "credits conserved"));
        r
    }

    #[test]
    fn escaping_covers_specials() {
        let mut r = Report::new("quote \" backslash \\ newline \n control \u{1}");
        r.push(Finding::info("AN-MODEL-003", "tab\there"));
        let text = report_json(&r);
        assert!(text.contains(r#""quote \" backslash \\ newline \n control \u0001""#));
        assert!(text.contains(r#""tab\there""#));
        let parsed = simple::json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("subject").and_then(Value::as_str),
            Some(r.subject.as_str())
        );
    }

    #[test]
    fn json_contains_structured_location() {
        let text = report_json(&sample());
        assert!(text.contains("\"code\": \"AN-PROTO-002\""));
        assert!(text.contains("\"kind\": \"config\""));
        assert!(text.contains("\"field\": \"app.pixel_queue_capacity\""));
        assert!(text.contains("\"value\": \"768\""));
        assert!(text.contains("queue \\\"too small\\\""));
        assert!(text.contains("\"errors\": 1"));
    }

    #[test]
    fn json_parses_as_balanced_braces() {
        // Every rendering is one strict JSON value.
        let reports = [sample(), Report::new("clean")];
        let doc = simple::json::parse(&reports_json(&reports)).unwrap();
        let parsed = doc.get("reports").and_then(Value::as_array).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].get("errors").and_then(Value::as_u64), Some(1));
        assert!(simple::json::parse(&sarif(&reports)).is_ok());
        let timed =
            reports_json_with_timings(&reports, &[("s".to_owned(), vec![("token_ms", 0.5)])]);
        assert!(simple::json::parse(&timed).is_ok());
    }

    #[test]
    fn timings_block_is_additive() {
        let reports = [sample()];
        let bare = reports_json(&reports);
        assert_eq!(bare, reports_json_with_timings(&reports, &[]));
        let timed = reports_json_with_timings(
            &reports,
            &[(
                "version 3".to_owned(),
                vec![("token_ms", 0.25), ("model_ms", 12.5)],
            )],
        );
        assert!(timed.contains("\"timings\": ["));
        assert!(timed.contains("\"token_ms\": 0.250"));
        assert!(timed.contains("\"model_ms\": 12.500"));
        // The reports array itself is unchanged by the timings block.
        assert!(timed.starts_with(bare.trim_end_matches("\n}\n")));
    }

    #[test]
    fn sarif_has_rules_and_results() {
        let text = sarif(&[sample()]);
        assert!(text.contains("\"version\": \"2.1.0\""));
        assert!(text.contains("\"id\": \"AN-MODEL-003\""));
        assert!(text.contains("\"id\": \"AN-PROTO-002\""));
        assert!(text.contains("\"level\": \"error\""));
        assert!(text.contains("\"level\": \"note\""));
        assert!(text.contains("app.pixel_queue_capacity"));
        assert!(text.contains("note: demand is 2250"));
        // Rule indices refer to the sorted rule list: AN-MODEL-003 is 0.
        assert!(text.contains("\"ruleId\": \"AN-MODEL-003\",\n          \"ruleIndex\": 0"));
    }

    #[test]
    fn empty_reports_render_empty_runs() {
        let text = sarif(&[]);
        assert!(text.contains("\"rules\": []"));
        assert!(text.contains("\"results\": []"));
    }
}
