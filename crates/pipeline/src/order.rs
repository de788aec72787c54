//! Proven event orderings a workload declares for trace verification.
//!
//! The happens-before engine (`analyzer::hb`) checks recorded traces
//! against these edges: a cause token whose timestamp lands *after*
//! its matched effect is a measurement-infrastructure bug (clock
//! drift, channel mislabeling, trace corruption) — a legal execution
//! cannot produce it.

/// How a [`OrderEdge`]'s cause and effect instances are matched up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderScope {
    /// Cause and effect are matched by the job id in the event
    /// parameter across *all* channels — the master/servant shape,
    /// where one job id exists once in the whole system. Duplicate
    /// occurrences of one `(token, id)` on unsynchronized channels are
    /// a race (`AN-HB-002`).
    #[default]
    Global,
    /// Cause and effect are matched by parameter *within each
    /// channel* — the SPMD shape, where every worker legitimately
    /// passes through the same instrumentation point with the same
    /// iteration number. Cross-channel duplicates are expected and
    /// never diagnosed.
    PerChannel,
}

/// One ordering guaranteed by the workload's communication protocol,
/// instance-matched by the job id carried in the event parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderEdge {
    /// Stable name (used in diagnostics).
    pub name: &'static str,
    /// Token that must come first.
    pub cause: u16,
    /// Token that must come strictly later (equal timestamps are
    /// tolerated — quantized clocks can collapse a pair onto one tick).
    pub effect: u16,
    /// Why the order is guaranteed.
    pub why: &'static str,
    /// How cause and effect instances are matched.
    pub scope: OrderScope,
}

/// The matching scope a set of declared orders implies for race
/// analysis: [`OrderScope::Global`] as soon as any edge matches
/// globally (one job id exists once in the whole system, so unordered
/// sends to one mailbox are a real race), [`OrderScope::PerChannel`]
/// when every edge — or no edge at all — is per-channel (the SPMD
/// shape, where cross-sender interleaving at a shared mailbox is the
/// declared-benign norm).
pub fn dominant_scope(orders: &[OrderEdge]) -> OrderScope {
    if orders.iter().any(|o| o.scope == OrderScope::Global) {
        OrderScope::Global
    } else {
        OrderScope::PerChannel
    }
}

impl OrderEdge {
    /// A globally matched edge (one job id across the whole system).
    pub const fn global(
        name: &'static str,
        cause: u16,
        effect: u16,
        why: &'static str,
    ) -> OrderEdge {
        OrderEdge {
            name,
            cause,
            effect,
            why,
            scope: OrderScope::Global,
        }
    }

    /// A per-channel edge (every worker passes the same points with
    /// the same parameter; matching never crosses channels).
    pub const fn per_channel(
        name: &'static str,
        cause: u16,
        effect: u16,
        why: &'static str,
    ) -> OrderEdge {
        OrderEdge {
            name,
            cause,
            effect,
            why,
            scope: OrderScope::PerChannel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    #[test]
    fn dominant_scope_follows_the_workload_declaration() {
        // The ray tracer declares globally matched job-id edges; one
        // such edge makes the whole workload's scope global.
        let ray = [
            OrderEdge::global("job-sent-before-work", 1, 2, "blocking send"),
            OrderEdge::global("work-before-result-received", 2, 3, "blocking send"),
        ];
        assert_eq!(dominant_scope(&ray), OrderScope::Global);
        let mixed = [ray[0], OrderEdge::per_channel("a", 1, 2, "w")];
        assert_eq!(dominant_scope(&mixed), OrderScope::Global);
        let spmd = crate::jacobi::JacobiConfig::default().proven_orders();
        assert_eq!(dominant_scope(&spmd), OrderScope::PerChannel);
        assert_eq!(dominant_scope(&[]), OrderScope::PerChannel);
    }
}
