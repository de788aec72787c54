//! From machine signals to monitor samples to SIMPLE traces.
//!
//! These conversions are the glue the pipeline owns: every workload's
//! seven-segment display emissions become ZM4 input (channel = node
//! index) — either as the events a fault-free detector assembles from
//! them, or as the probe samples of a machine's signal log — and every
//! ZM4 measurement's merged trace becomes SIMPLE events ready for
//! evaluation.

use des::time::SimDuration;
use suprenum::{DisplayWrite, EmissionRecord, Machine};
use zm4::{DetectedEvent, Measurement, ProbeSample};

use simple::Trace;

/// The events the detectors assemble from display emissions (as
/// [`Machine::emissions`] records them) on a fault-free probe plane:
/// one per emission, at its last pattern write plus the detector
/// `latency` (channel = node index).
///
/// Exact because the kernel serializes each node's display: an
/// emission's 32 writes never interleave with another's, so each
/// triggerword/pattern pair reaches the detector whole and nothing else
/// does. Per channel the events are in time order.
pub fn decoded_events(
    emissions: &[EmissionRecord],
    latency: SimDuration,
) -> impl Iterator<Item = DetectedEvent> + '_ {
    emissions.iter().map(move |rec| DetectedEvent {
        time: rec.last_write_at() + latency,
        channel: rec.node.index() as usize,
        event: rec.event(),
    })
}

/// The ZM4 probe sample of one display write (channel = node index).
pub fn probe_sample(write: DisplayWrite) -> ProbeSample {
    ProbeSample {
        time: write.time,
        channel: write.node.index() as usize,
        pattern: write.pattern,
    }
}

/// Streams a machine's display signal log as ZM4 probe samples
/// (channel = node index). The signal log is globally time-sorted,
/// hence per-channel time-sorted — exactly the precondition of
/// [`zm4::Zm4::observe_iter`]. Reading it expands the whole log; the
/// pipeline itself observes the emissions ([`crate::observe`]).
pub fn probe_sample_iter(machine: &Machine) -> impl Iterator<Item = ProbeSample> + '_ {
    machine
        .signals()
        .display_writes()
        .iter()
        .copied()
        .map(probe_sample)
}

/// Converts a ZM4 measurement's merged trace into SIMPLE events.
pub fn to_simple_trace(measurement: &Measurement) -> Trace {
    measurement
        .trace
        .iter()
        .map(|r| {
            simple::Event::new(
                r.ts_ns,
                r.channel,
                r.event.token.value(),
                r.event.param.value(),
            )
        })
        .collect()
}
