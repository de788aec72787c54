//! The pre-flight analysis seam between the pipeline and the analyzer.
//!
//! The pipeline never depends on the analyzer (the analyzer depends on
//! the workloads, which depend on the pipeline); instead a
//! [`Preflight`] carries a plain `fn` pointer the analyzer supplies and
//! a [`PolicyMode`] deciding what its findings may do: nothing
//! (`Off`), print (`Warn` — the mode for reproducing the paper's
//! measurements, where version 3's queue bug must execute to be
//! measured), or refuse the run (`Deny`).

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};

use crate::{PipelineConfig, Workload};

thread_local! {
    /// The pre-flight reports [`hold_reports`] is holding back on this
    /// thread, or `None` while they print as they come.
    static HELD: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Runs `f` with this thread's pre-flight reports held back, and returns
/// its outcome with them: the text [`try_preflight`] would have printed
/// to stderr meanwhile. A harness that runs jobs on several threads
/// prints each job's reports after those of the jobs before it, so its
/// stderr does not depend on which job finishes first. A report that
/// refuses its run is never held: it prints at once.
///
/// A panic in `f` is caught and returned as the outcome's `Err`, so the
/// reports held until then are never lost; the caller prints them and
/// then resumes the panic.
pub fn hold_reports<R>(f: impl FnOnce() -> R) -> (std::thread::Result<R>, String) {
    let outer = HELD.with(|held| held.replace(Some(String::new())));
    let outcome = panic::catch_unwind(AssertUnwindSafe(f));
    let reports = HELD.with(|held| held.replace(outer)).unwrap_or_default();
    (outcome, reports)
}

/// What a pre-flight analysis of a run configuration concluded.
///
/// Kept deliberately flat — counts plus pre-rendered text — so the
/// pipeline needs no knowledge of the analyzer's diagnostic model.
#[derive(Debug, Clone, Default)]
pub struct PreflightSummary {
    /// Findings that predict a broken measurement (deadlock, event
    /// loss, corrupted attribution).
    pub errors: usize,
    /// Findings that predict a distorted measurement.
    pub warnings: usize,
    /// Informational findings — proofs of absence, certificates,
    /// provenance notes. Tracked so analysis drift (a proof appearing
    /// or disappearing) is visible run-to-run, not just defects.
    pub infos: usize,
    /// The findings, rendered for a terminal.
    pub rendered: String,
}

/// The analysis hook an external crate supplies for workload `W`.
pub type PreflightHook<W> = fn(&PipelineConfig<W>) -> PreflightSummary;

/// What the pre-flight findings are allowed to do to the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyMode {
    /// Run without any pre-flight analysis.
    #[default]
    Off,
    /// Analyze, print any findings to stderr, and run regardless.
    Warn,
    /// Analyze and refuse to run a configuration with errors.
    Deny,
}

impl PolicyMode {
    /// Resolves the mode from the `ANALYZER_POLICY` environment
    /// variable (`off` | `warn` | `deny`, case-insensitive). `None`
    /// when unset; an unrecognized value is reported on stderr and
    /// treated as unset — a sweep should not silently lose its
    /// analysis because of a typo.
    pub fn from_env() -> Option<PolicyMode> {
        match std::env::var("ANALYZER_POLICY") {
            Err(_) => None,
            Ok(value) => match value.to_ascii_lowercase().as_str() {
                "off" => Some(PolicyMode::Off),
                "warn" => Some(PolicyMode::Warn),
                "deny" => Some(PolicyMode::Deny),
                other => {
                    eprintln!(
                        "ANALYZER_POLICY={other:?} not recognized (expected off|warn|deny); \
                         keeping the default policy"
                    );
                    None
                }
            },
        }
    }
}

/// Whether (and how strictly) [`crate::run_workload`] analyzes its
/// configuration before executing it.
pub struct Preflight<W: Workload> {
    /// What the findings may do. A mode other than [`PolicyMode::Off`]
    /// with no hook behaves as `Off` (there is nothing to run).
    pub mode: PolicyMode,
    /// The analysis itself, supplied externally (see
    /// [`PreflightHook`]).
    pub hook: Option<PreflightHook<W>>,
}

// Manual impls: `W` appears only inside the fn-pointer type, so the
// derive-generated `W: Clone`/`W: Copy` bounds would be too strict.
impl<W: Workload> Clone for Preflight<W> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<W: Workload> Copy for Preflight<W> {}

impl<W: Workload> Default for Preflight<W> {
    fn default() -> Self {
        Preflight::off()
    }
}

impl<W: Workload> std::fmt::Debug for Preflight<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Preflight")
            .field("mode", &self.mode)
            .field("hook", &self.hook.map(|_| "fn"))
            .finish()
    }
}

impl<W: Workload> Preflight<W> {
    /// No analysis.
    pub const fn off() -> Self {
        Preflight {
            mode: PolicyMode::Off,
            hook: None,
        }
    }

    /// Analyze with `hook`, print findings, run regardless.
    pub const fn warn(hook: PreflightHook<W>) -> Self {
        Preflight {
            mode: PolicyMode::Warn,
            hook: Some(hook),
        }
    }

    /// Analyze with `hook` and refuse to run on errors.
    pub const fn deny(hook: PreflightHook<W>) -> Self {
        Preflight {
            mode: PolicyMode::Deny,
            hook: Some(hook),
        }
    }
}

/// A pre-flight analysis that refused the run (see [`try_preflight`]).
///
/// Carries the complete summary — every finding, not just the first —
/// so a caller batching many configurations can surface all of them
/// before failing.
#[derive(Debug, Clone)]
pub struct PreflightDenied {
    /// The full analysis summary, findings included.
    pub summary: PreflightSummary,
}

impl std::fmt::Display for PreflightDenied {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pre-flight analysis found {} error(s); refusing to run:\n{}",
            self.summary.errors, self.summary.rendered
        )
    }
}

impl std::error::Error for PreflightDenied {}

/// Runs the configured pre-flight analysis without panicking.
///
/// All findings are printed to stderr *before* the verdict is taken,
/// so a denied run still reports everything the analysis found — not
/// just the first failure. Inside [`hold_reports`] the findings of a run
/// that goes ahead are held back instead.
///
/// # Errors
///
/// Returns [`PreflightDenied`] (carrying the complete summary) under
/// [`PolicyMode::Deny`] when the analysis reports errors.
pub fn try_preflight<W: Workload>(
    cfg: &PipelineConfig<W>,
) -> Result<Option<PreflightSummary>, PreflightDenied> {
    let (hook, deny) = match (cfg.preflight.mode, cfg.preflight.hook) {
        (PolicyMode::Off, _) | (_, None) => return Ok(None),
        (PolicyMode::Warn, Some(hook)) => (hook, false),
        (PolicyMode::Deny, Some(hook)) => (hook, true),
    };
    let summary = hook(cfg);
    let denied = deny && summary.errors > 0;
    if summary.errors + summary.warnings > 0 {
        let text = summary.rendered.trim_end();
        HELD.with(|held| match held.borrow_mut().as_mut() {
            Some(reports) if !denied => {
                reports.push_str(text);
                reports.push('\n');
            }
            _ => eprintln!("{text}"),
        });
    }
    if denied {
        return Err(PreflightDenied { summary });
    }
    Ok(Some(summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::JacobiConfig;

    fn warning_hook(_: &PipelineConfig<JacobiConfig>) -> PreflightSummary {
        PreflightSummary {
            warnings: 1,
            rendered: "warning[TEST]: held\n\n".into(),
            ..PreflightSummary::default()
        }
    }

    fn error_hook(_: &PipelineConfig<JacobiConfig>) -> PreflightSummary {
        PreflightSummary {
            errors: 1,
            rendered: "error[TEST]: refused\n".into(),
            ..PreflightSummary::default()
        }
    }

    /// Held reports come back in order, as stderr would have shown
    /// them, also from a run that panics; a report that refuses its run
    /// is printed, never held.
    #[test]
    fn held_reports_come_back_in_order() {
        let mut cfg = PipelineConfig::new(JacobiConfig::default());
        cfg.preflight = Preflight::warn(warning_hook);
        let (runs, held) = hold_reports(|| [try_preflight(&cfg), try_preflight(&cfg)]);
        assert!(runs.unwrap().iter().all(Result::is_ok));
        assert_eq!(held, "warning[TEST]: held\nwarning[TEST]: held\n");
        let (panicked, held) = hold_reports(|| {
            let _ = try_preflight(&cfg);
            panic!("the run failed after its pre-flight");
        });
        assert!(panicked.is_err());
        assert_eq!(held, "warning[TEST]: held\n");
        cfg.preflight = Preflight::deny(error_hook);
        let (denied, held) = hold_reports(|| try_preflight(&cfg));
        assert_eq!(denied.unwrap().unwrap_err().summary.errors, 1);
        assert_eq!(held, "");
        HELD.with(|held| assert!(held.borrow().is_none(), "nothing is held outside"));
    }

    #[test]
    fn env_override_selects_policies() {
        // Set/unset ANALYZER_POLICY around each probe. Serialized by
        // being the crate's only reader of the variable; it is left
        // unset at the end.
        let probe = |value: Option<&str>| {
            match value {
                Some(v) => std::env::set_var("ANALYZER_POLICY", v),
                None => std::env::remove_var("ANALYZER_POLICY"),
            }
            PolicyMode::from_env()
        };
        assert_eq!(probe(Some("off")), Some(PolicyMode::Off));
        assert_eq!(probe(Some("WARN")), Some(PolicyMode::Warn));
        assert_eq!(probe(Some("deny")), Some(PolicyMode::Deny));
        // Unknown values are reported and treated as unset.
        assert_eq!(probe(Some("strict")), None);
        assert_eq!(probe(None), None);
    }
}
