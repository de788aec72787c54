//! Lints over declared instrumentation point maps.
//!
//! A *point map* is the raw, uncollapsed list of `(token id, activity
//! name, group)` declarations a program registers with the monitor —
//! [`raysim::tokens::point_map`] for the application and
//! [`suprenum::os_tokens::point_map`] for the kernel. The lints catch
//! the mistakes that silently corrupt a measurement long before any
//! event is emitted:
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | `AN-TOKEN-001` | error | `… End` name with no matching begin declaration |
//! | `AN-TOKEN-002` | error | duplicate token id inside one map |
//! | `AN-TOKEN-003` | error/warning | reserved-range violation (kernel base `0xF000`, zero token) |
//! | `AN-TOKEN-004` | error/info | application/kernel id collision; shared-display interleaving |
//! | `AN-TOKEN-005` | warning | duplicate activity name within one group |
//! | `AN-TOKEN-006` | warning | kernel events requested under a monitoring mode that drops them (emitted by the pre-flight workload hook) |

use std::collections::BTreeMap;

use suprenum::os_tokens::KERNEL_TOKEN_BASE;

use crate::diag::{Finding, Report};

/// One declared instrumentation point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenDecl {
    /// The 16-bit token id.
    pub token: u16,
    /// The activity name shown on Gantt tracks; names ending in
    /// `" End"` close the activity of the same base name.
    pub name: String,
    /// The role that owns the point (Master, Servant, Agent, Kernel).
    pub group: String,
}

impl TokenDecl {
    /// Creates a declaration.
    pub fn new(token: u16, name: impl Into<String>, group: impl Into<String>) -> Self {
        TokenDecl {
            token,
            name: name.into(),
            group: group.into(),
        }
    }

    /// If the name is a closer (`"X End"`), the base name `"X"` it closes.
    pub fn end_base(&self) -> Option<&str> {
        self.name.strip_suffix(" End")
    }
}

/// Whose activity state machine a map drives — decides which side of
/// the `0xF000` kernel reservation its ids must live on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapKind {
    /// Application-level instrumentation (below the kernel base).
    Application,
    /// Kernel instrumentation (at or above the kernel base).
    Kernel,
}

/// A complete declared point map, ready to lint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenMap {
    /// Display label used in finding spans, e.g. `raysim::tokens`.
    pub label: String,
    /// Which reservation side the map belongs to.
    pub kind: MapKind,
    /// The declarations, in declaration order.
    pub decls: Vec<TokenDecl>,
}

impl TokenMap {
    /// An empty map.
    pub fn new(label: impl Into<String>, kind: MapKind) -> Self {
        TokenMap {
            label: label.into(),
            kind,
            decls: Vec::new(),
        }
    }

    /// Builds a map from `(token, name, group)` tuples as produced by
    /// the `point_map()` declarations in the instrumented crates.
    pub fn from_points(
        label: impl Into<String>,
        kind: MapKind,
        points: &[(u16, &str, &str)],
    ) -> Self {
        TokenMap {
            label: label.into(),
            kind,
            decls: points
                .iter()
                .map(|&(t, n, g)| TokenDecl::new(t, n, g))
                .collect(),
        }
    }

    /// Builds a map from any workload's declared instrumentation
    /// points — the bridge that makes the `AN-TOKEN-*` lints
    /// workload-agnostic (see [`crate::preflight::workload_hook`]).
    pub fn from_workload<W: pipeline::Workload>(workload: &W) -> Self {
        TokenMap {
            label: format!("{}::tokens", workload.id()),
            kind: MapKind::Application,
            decls: workload
                .token_map()
                .iter()
                .map(|d| TokenDecl::new(d.token, d.name, d.group))
                .collect(),
        }
    }

    /// The ray tracer's declared application point map.
    pub fn raysim_application() -> Self {
        TokenMap::from_points(
            "raysim::tokens",
            MapKind::Application,
            &raysim::tokens::point_map(),
        )
    }

    /// SUPRENUM's declared kernel point map.
    pub fn suprenum_kernel() -> Self {
        TokenMap::from_points(
            "suprenum::os_tokens",
            MapKind::Kernel,
            &suprenum::os_tokens::point_map(),
        )
    }

    fn span(&self, decl: &TokenDecl) -> String {
        format!(
            "{}: 0x{:04X} \"{}\" ({})",
            self.label, decl.token, decl.name, decl.group
        )
    }

    /// Runs every single-map lint and returns the findings.
    pub fn lint(&self) -> Report {
        let mut report = Report::new(self.label.clone());
        self.lint_end_pairs(&mut report);
        self.lint_duplicate_ids(&mut report);
        self.lint_reserved_ranges(&mut report);
        self.lint_duplicate_names(&mut report);
        report
    }

    /// `AN-TOKEN-001`: a `"X End"` declaration needs a `"X"` begin
    /// declaration in the same group, or the activity derivation sees an
    /// end with nothing to close and the Gantt track goes negative.
    fn lint_end_pairs(&self, report: &mut Report) {
        for decl in &self.decls {
            let Some(base) = decl.end_base() else {
                continue;
            };
            let has_begin = self
                .decls
                .iter()
                .any(|d| d.group == decl.group && d.name == base);
            if !has_begin {
                report.push(
                    Finding::error(
                        "AN-TOKEN-001",
                        format!(
                            "unmatched end token: \"{}\" has no \"{}\" begin declaration \
                             in group {}",
                            decl.name, base, decl.group
                        ),
                    )
                    .at(self.span(decl))
                    .note(
                        "an \"… End\" name closes the activity of the same base name; \
                         without the begin the activity derivation cannot attribute \
                         the interval",
                    )
                    .help(format!(
                        "declare a \"{base}\" point in group {} or remove the end token",
                        decl.group
                    )),
                );
            }
        }
    }

    /// `AN-TOKEN-002`: two declarations with the same id. The activity
    /// model silently overwrites on collision, so the first
    /// declaration's events get reattributed to the second's activity.
    fn lint_duplicate_ids(&self, report: &mut Report) {
        let mut by_id: BTreeMap<u16, Vec<&TokenDecl>> = BTreeMap::new();
        for decl in &self.decls {
            by_id.entry(decl.token).or_default().push(decl);
        }
        for (token, decls) in by_id {
            if decls.len() < 2 {
                continue;
            }
            let names: Vec<String> = decls
                .iter()
                .map(|d| format!("\"{}\" ({})", d.name, d.group))
                .collect();
            report.push(
                Finding::error(
                    "AN-TOKEN-002",
                    format!(
                        "token id 0x{token:04X} declared {} times: {}",
                        decls.len(),
                        names.join(", ")
                    ),
                )
                .at(self.span(decls[0]))
                .note(
                    "ActivityModel::state keeps only the last declaration, so \
                     earlier points are silently reattributed",
                )
                .help("give each instrumentation point a unique id"),
            );
        }
    }

    /// `AN-TOKEN-003`: reserved-range violations. Application ids must
    /// stay below [`KERNEL_TOKEN_BASE`] (the decoder attributes a token
    /// to kernel or application by range alone when both share a node's
    /// display channel); kernel ids must stay at or above it; token
    /// `0x0000` is ambiguous with an all-zero idle event.
    fn lint_reserved_ranges(&self, report: &mut Report) {
        for decl in &self.decls {
            match self.kind {
                MapKind::Application if decl.token >= KERNEL_TOKEN_BASE => {
                    report.push(
                        Finding::error(
                            "AN-TOKEN-003",
                            format!(
                                "application token 0x{:04X} lies in the kernel-reserved \
                                 range (>= 0x{KERNEL_TOKEN_BASE:04X})",
                                decl.token
                            ),
                        )
                        .at(self.span(decl))
                        .note(
                            "the decoder attributes tokens to the kernel or the \
                             application by id range; an application token in the \
                             kernel range is decoded as a kernel event",
                        )
                        .help(format!("move the id below 0x{KERNEL_TOKEN_BASE:04X}")),
                    );
                }
                MapKind::Kernel if decl.token < KERNEL_TOKEN_BASE => {
                    report.push(
                        Finding::warning(
                            "AN-TOKEN-003",
                            format!(
                                "kernel token 0x{:04X} lies below the kernel base \
                                 0x{KERNEL_TOKEN_BASE:04X}",
                                decl.token
                            ),
                        )
                        .at(self.span(decl))
                        .note(
                            "kernel events outside the reserved range are \
                             indistinguishable from application events",
                        ),
                    );
                }
                _ => {}
            }
            if decl.token == 0 {
                report.push(
                    Finding::warning(
                        "AN-TOKEN-003",
                        "token 0x0000 is ambiguous with an all-zero event".to_string(),
                    )
                    .at(self.span(decl))
                    .note(
                        "a zero token with a zero parameter encodes as sixteen zero \
                         data groups — valid on the wire, but unattributable when a \
                         trace is truncated",
                    ),
                );
            }
        }
    }

    /// `AN-TOKEN-005`: two different ids carrying the same activity name
    /// inside one group — legal, but the Gantt derivation merges them
    /// into one track segment, which is rarely intended.
    fn lint_duplicate_names(&self, report: &mut Report) {
        let mut by_name: BTreeMap<(&str, &str), Vec<&TokenDecl>> = BTreeMap::new();
        for decl in &self.decls {
            by_name
                .entry((decl.group.as_str(), decl.name.as_str()))
                .or_default()
                .push(decl);
        }
        for ((group, name), decls) in by_name {
            let distinct_ids: std::collections::BTreeSet<u16> =
                decls.iter().map(|d| d.token).collect();
            if distinct_ids.len() < 2 {
                continue;
            }
            report.push(
                Finding::warning(
                    "AN-TOKEN-005",
                    format!(
                        "activity \"{name}\" in group {group} is declared under {} \
                         different ids",
                        distinct_ids.len()
                    ),
                )
                .at(self.span(decls[0]))
                .note("the activity derivation merges same-named points into one state"),
            );
        }
    }
}

/// Cross-map lints for an application and a kernel map that share a
/// node's display channel (`AN-TOKEN-004`).
pub fn lint_pair(app: &TokenMap, kernel: &TokenMap) -> Report {
    let mut report = Report::new(format!("{} + {}", app.label, kernel.label));
    let kernel_ids: BTreeMap<u16, &TokenDecl> = kernel.decls.iter().map(|d| (d.token, d)).collect();
    for decl in &app.decls {
        if let Some(kdecl) = kernel_ids.get(&decl.token) {
            report.push(
                Finding::error(
                    "AN-TOKEN-004",
                    format!(
                        "token id 0x{:04X} is declared by both the application \
                         (\"{}\") and the kernel (\"{}\")",
                        decl.token, decl.name, kdecl.name
                    ),
                )
                .at(app.span(decl))
                .note(
                    "both maps drive the same display channel per node; a shared id \
                     makes every such event unattributable",
                ),
            );
        }
    }
    if !app.decls.is_empty() && !kernel.decls.is_empty() {
        report.push(
            Finding::info(
                "AN-TOKEN-004",
                "application and kernel instrumentation interleave on each node's \
                 display channel"
                    .to_string(),
            )
            .at(format!("{} / {}", app.label, kernel.label))
            .note(
                "the decoder tolerates interleaving only between (T, m) pairs; the \
                 kernel must emit solely in windows where it owns the CPU so no \
                 application event is split mid-pair",
            ),
        );
    }
    report
}

/// Lints both stock point maps and their interaction; the map-level half
/// of [`crate::preflight::analyze`].
pub fn lint_stock_maps() -> Report {
    let app = TokenMap::raysim_application();
    let kernel = TokenMap::suprenum_kernel();
    let mut report = Report::new("stock point maps");
    report.merge(app.lint());
    report.merge(kernel.lint());
    report.merge(lint_pair(&app, &kernel));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app_map(points: &[(u16, &str, &str)]) -> TokenMap {
        TokenMap::from_points("test", MapKind::Application, points)
    }

    #[test]
    fn stock_maps_have_no_errors() {
        let report = lint_stock_maps();
        assert!(
            !report.has_errors(),
            "stock maps must lint clean:\n{}",
            report.render()
        );
        assert_eq!(report.warnings(), 0);
        // The interleaving reminder is the only finding.
        assert!(report.contains("AN-TOKEN-004"));
        assert_eq!(report.findings.len(), 1);
    }

    #[test]
    fn unmatched_end_is_an_error() {
        let map = app_map(&[
            (0x0101, "Send Jobs End", "Master"),
            (0x0102, "Wait for Results", "Master"),
        ]);
        let report = map.lint();
        assert!(report.contains("AN-TOKEN-001"));
        assert!(report.has_errors());
    }

    #[test]
    fn matched_end_is_clean() {
        let map = app_map(&[
            (0x0101, "Send Jobs", "Master"),
            (0x0102, "Send Jobs End", "Master"),
        ]);
        assert!(map.lint().is_clean());
    }

    #[test]
    fn end_pair_must_share_group() {
        let map = app_map(&[
            (0x0101, "Send Jobs", "Servant"),
            (0x0102, "Send Jobs End", "Master"),
        ]);
        assert!(map.lint().contains("AN-TOKEN-001"));
    }

    #[test]
    fn duplicate_id_is_an_error() {
        let map = app_map(&[(0x0101, "Send Jobs", "Master"), (0x0101, "Work", "Servant")]);
        let report = map.lint();
        assert!(report.contains("AN-TOKEN-002"));
        assert!(report.has_errors());
    }

    #[test]
    fn app_token_in_kernel_range_is_an_error() {
        let map = app_map(&[(0xF001, "Work", "Servant")]);
        let report = map.lint();
        let f = report.with_code("AN-TOKEN-003").next().unwrap();
        assert_eq!(f.severity, crate::diag::Severity::Error);
    }

    #[test]
    fn kernel_token_below_base_is_a_warning() {
        let map = TokenMap::from_points("test", MapKind::Kernel, &[(0x0101, "Dispatch", "Kernel")]);
        let report = map.lint();
        let f = report.with_code("AN-TOKEN-003").next().unwrap();
        assert_eq!(f.severity, crate::diag::Severity::Warning);
    }

    #[test]
    fn zero_token_is_a_warning() {
        let map = app_map(&[(0x0000, "Work", "Servant")]);
        assert!(map.lint().contains("AN-TOKEN-003"));
        assert!(!map.lint().has_errors());
    }

    #[test]
    fn duplicate_name_is_a_warning() {
        let map = app_map(&[(0x0101, "Work", "Servant"), (0x0102, "Work", "Servant")]);
        let report = map.lint();
        assert!(report.contains("AN-TOKEN-005"));
        assert!(!report.has_errors());
    }

    #[test]
    fn cross_map_collision_is_an_error() {
        let app = app_map(&[(0x0101, "Work", "Servant")]);
        let kernel = TokenMap::from_points("k", MapKind::Kernel, &[(0x0101, "Dispatch", "Kernel")]);
        let report = lint_pair(&app, &kernel);
        assert!(report.has_errors());
        assert!(report.contains("AN-TOKEN-004"));
    }
}
