//! Static event-rate overload prediction.
//!
//! From the instrumentation density (events emitted per job, per the
//! declared point map and version) and the application's cost constants,
//! this module derives a **worst-case** sustained event rate per display
//! channel, aggregates channels onto their ZM4 event recorders
//! (`channel / streams_per_recorder`), and compares each recorder's
//! arrival rate against the 10 000 events/s FIFO→disk drain and the 32 K
//! FIFO — predicting, before any simulation runs, whether a measurement
//! would lose events (the dynamic E3 experiment's failure mode):
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | `AN-RATE-001` | error | worst-case backlog exceeds the FIFO: events will be lost |
//! | `AN-RATE-002` | warning | backlog exceeds half the FIFO: one doubling from loss |
//! | `AN-RATE-003` | info | arrival exceeds the sustained drain but the FIFO absorbs it |
//! | `AN-RATE-004` | warning | instantaneous burst exceeds the recorder's 10 M events/s limit |
//!
//! "Worst case" means the *fastest* admissible job: rays that hit
//! nothing (the `raytracer::cost::CostModel::per_ray` floor), base costs
//! only, every channel of a recorder busy simultaneously. A clean bill
//! here is a guarantee; a finding is a possibility, not a certainty.

use hybridmon::MonitoringMode;
use raysim::config::AppConfig;
use suprenum::MachineConfig;
use zm4::Zm4Config;

use crate::diag::{Finding, Report};

/// Worst-case kernel events per job when kernel instrumentation is on:
/// dispatch + block on the send side, mailbox service + dispatch on the
/// receive side, plus two scheduler transitions for the servant's own
/// blocking — all per job in the worst case.
pub const KERNEL_EVENTS_PER_JOB: f64 = 6.0;

/// Worst-case load of one display channel (one node).
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelLoad {
    /// The channel (node index; the master is channel 0).
    pub channel: usize,
    /// Role of the node, for reports.
    pub role: &'static str,
    /// Instrumentation events emitted per job.
    pub events_per_job: f64,
    /// Fastest admissible service time of one job, seconds.
    pub min_seconds_per_job: f64,
    /// Jobs this node handles over the whole image.
    pub jobs: f64,
    /// Peak sustained event rate, events/s.
    pub peak_hz: f64,
    /// How long the node can sustain the peak (its total busy time).
    pub busy_seconds: f64,
}

/// Worst-case load of one ZM4 event recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct RecorderLoad {
    /// Recorder index.
    pub recorder: usize,
    /// The channels multiplexed onto it.
    pub channels: Vec<usize>,
    /// Combined peak arrival rate, events/s.
    pub arrival_hz: f64,
    /// Sustained drain rate, events/s.
    pub drain_hz: f64,
    /// Worst-case FIFO backlog, records (arrival above drain integrated
    /// over the channels' busy intervals).
    pub peak_backlog: f64,
    /// Combined instantaneous burst rate (events back to back on every
    /// channel), events/s.
    pub burst_hz: f64,
}

/// The full prediction: per-channel and per-recorder worst cases.
#[derive(Debug, Clone, PartialEq)]
pub struct RatePrediction {
    /// Per-channel loads, channel 0 first.
    pub channels: Vec<ChannelLoad>,
    /// Per-recorder loads.
    pub recorders: Vec<RecorderLoad>,
}

fn master_load(app: &AppConfig, per_event: f64, kernel_events: f64) -> ChannelLoad {
    let jobs = total_jobs(app);
    // Per job: Send Jobs begin/end, Wait for Results, Receive Results,
    // amortized Write Pixels pair per chunk, plus the agent's four
    // events when the master hands jobs to communication agents (the
    // agents share the master's display channel).
    let mut events = 4.0 + 2.0 * app.bundle_size as f64 / app.write_chunk.max(1) as f64;
    if app.version.master_agents() {
        events += 4.0;
    }
    events += kernel_events;
    let bundle = app.bundle_size as f64;
    let seconds = app.send_base.as_secs_f64()
        + app.send_per_pixel.as_secs_f64() * bundle
        + app.receive_base.as_secs_f64()
        + app.receive_per_pixel.as_secs_f64() * bundle
        + events * per_event;
    ChannelLoad {
        channel: 0,
        role: "master",
        events_per_job: events,
        min_seconds_per_job: seconds,
        jobs,
        peak_hz: events / seconds,
        busy_seconds: jobs * seconds,
    }
}

fn servant_load(
    app: &AppConfig,
    channel: usize,
    per_event: f64,
    kernel_events: f64,
) -> ChannelLoad {
    let jobs = total_jobs(app) / app.servants.max(1) as f64;
    // Per job: Work, Wait for Job, Send Results when instrumented, plus
    // the servant-side agent's four events in versions 3 and 4.
    let mut events = 2.0;
    if app.instrument_send_results {
        events += 1.0;
    }
    if app.version.servant_agents() {
        events += 4.0;
    }
    events += kernel_events;
    // The fastest job: every ray misses everything, costing only the
    // per-ray floor of the cost model.
    let seconds = app.work_base.as_secs_f64()
        + app.cost.per_ray.as_secs_f64() * app.bundle_size as f64
        + events * per_event;
    ChannelLoad {
        channel,
        role: "servant",
        events_per_job: events,
        min_seconds_per_job: seconds,
        jobs,
        peak_hz: events / seconds,
        busy_seconds: jobs * seconds,
    }
}

fn total_jobs(app: &AppConfig) -> f64 {
    let rays = app.total_pixels() as f64 * (app.oversample as f64).powi(2);
    rays / app.bundle_size.max(1) as f64
}

/// Worst-case FIFO backlog of one recorder: channel `c` contributes
/// `peak_hz` until `busy_seconds(c)`, the drain removes `drain_hz`
/// throughout. The backlog is piecewise linear in time, so its maximum
/// lies at one of the busy-interval endpoints.
fn peak_backlog(channels: &[&ChannelLoad], drain_hz: f64) -> f64 {
    let mut max = 0.0f64;
    for probe in channels {
        let t = probe.busy_seconds;
        let arrived: f64 = channels
            .iter()
            .map(|c| c.peak_hz * c.busy_seconds.min(t))
            .sum();
        max = max.max(arrived - drain_hz * t);
    }
    max
}

/// Computes the worst-case rate prediction for a run setup.
pub fn predict(app: &AppConfig, machine: &MachineConfig, zm4: &Zm4Config) -> RatePrediction {
    let per_event = machine
        .monitor_costs
        .per_event(machine.monitoring)
        .as_secs_f64();
    let kernel_events =
        if machine.kernel_instrumentation && machine.monitoring == MonitoringMode::Hybrid {
            KERNEL_EVENTS_PER_JOB
        } else {
            0.0
        };

    let mut channels = vec![master_load(app, per_event, kernel_events)];
    for s in 1..=app.servants as usize {
        channels.push(servant_load(app, s, per_event, kernel_events));
    }

    let streams = zm4.streams_per_recorder.max(1);
    let recorder_count = channels.len().div_ceil(streams);
    let recorders = (0..recorder_count)
        .map(|r| {
            let members: Vec<&ChannelLoad> = channels
                .iter()
                .filter(|c| c.channel / streams == r)
                .collect();
            RecorderLoad {
                recorder: r,
                channels: members.iter().map(|c| c.channel).collect(),
                arrival_hz: members.iter().map(|c| c.peak_hz).sum(),
                drain_hz: zm4.disk_drain_rate as f64,
                peak_backlog: peak_backlog(&members, zm4.disk_drain_rate as f64),
                burst_hz: if per_event > 0.0 {
                    members.len() as f64 / per_event
                } else {
                    0.0
                },
            }
        })
        .collect();
    RatePrediction {
        channels,
        recorders,
    }
}

/// Runs the overload prediction and renders findings.
pub fn analyze_rate(app: &AppConfig, machine: &MachineConfig, zm4: &Zm4Config) -> Report {
    let mut report = Report::new(format!("{} event rates", app.version));
    if machine.monitoring == MonitoringMode::Off {
        report.push(
            Finding::info("AN-RATE-003", "monitoring is off; no events reach the ZM4")
                .at("machine.monitoring = off"),
        );
        return report;
    }
    let prediction = predict(app, machine, zm4);
    for rec in &prediction.recorders {
        let span = format!(
            "recorder {} (channels {:?}): worst-case arrival {:.0} events/s, drain {:.0}",
            rec.recorder, rec.channels, rec.arrival_hz, rec.drain_hz
        );
        if rec.burst_hz > Zm4Config::BURST_RATE_HZ as f64 {
            report.push(
                Finding::warning(
                    "AN-RATE-004",
                    format!(
                        "instantaneous burst of {:.2e} events/s exceeds the recorder's \
                         {:.0e} events/s limit",
                        rec.burst_hz,
                        Zm4Config::BURST_RATE_HZ as f64
                    ),
                )
                .at(span.clone())
                .note("back-to-back instrumentation calls on every multiplexed stream"),
            );
        }
        if rec.arrival_hz <= rec.drain_hz {
            continue;
        }
        let fifo = zm4.fifo_capacity as f64;
        let horizon = zm4
            .overflow_horizon(rec.arrival_hz)
            .map(|d| d.as_secs_f64());
        if rec.peak_backlog > fifo {
            let mut f = Finding::error(
                "AN-RATE-001",
                format!(
                    "predicted event loss: worst-case backlog of {:.0} records \
                     overflows the {:.0}-record FIFO",
                    rec.peak_backlog, fifo
                ),
            )
            .at(span)
            .note(format!(
                "the excess of {:.0} events/s fills the FIFO in {:.2} s but the \
                 instrumented phase sustains the rate longer",
                rec.arrival_hz - rec.drain_hz,
                horizon.unwrap_or(f64::INFINITY),
            ))
            .help(
                "reduce instrumentation density (larger bundles, fewer points), \
                 spread the channels over more recorders, or thin the point map",
            );
            if zm4.streams_per_recorder > 1 {
                f = f.help(format!(
                    "with streams_per_recorder = 1 instead of {} each channel gets \
                     its own FIFO and drain",
                    zm4.streams_per_recorder
                ));
            }
            report.push(f);
        } else if rec.peak_backlog > fifo / 2.0 {
            report.push(
                Finding::warning(
                    "AN-RATE-002",
                    format!(
                        "worst-case backlog of {:.0} records uses more than half the \
                         {:.0}-record FIFO",
                        rec.peak_backlog, fifo
                    ),
                )
                .at(span)
                .note("one doubling of instrumentation density away from event loss"),
            );
        } else {
            report.push(
                Finding::info(
                    "AN-RATE-003",
                    format!(
                        "arrival exceeds the sustained drain; the FIFO absorbs the \
                         worst-case backlog of {:.0} records",
                        rec.peak_backlog
                    ),
                )
                .at(span)
                .note(
                    "merged-trace timestamps stay correct — the FIFO defers draining, \
                     not recording",
                ),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::PipelineConfig;
    use raysim::config::Version;

    fn setup(version: Version) -> (AppConfig, MachineConfig, Zm4Config) {
        let cfg = PipelineConfig::new(AppConfig::version(version));
        (cfg.workload, cfg.machine, cfg.zm4)
    }

    #[test]
    fn stock_versions_never_predict_loss() {
        for version in Version::ALL {
            let (app, machine, zm4) = setup(version);
            let report = analyze_rate(&app, &machine, &zm4);
            assert!(!report.has_errors(), "{version}:\n{}", report.render());
            assert_eq!(report.warnings(), 0, "{version}:\n{}", report.render());
        }
    }

    #[test]
    fn single_ray_jobs_run_near_the_drain_limit() {
        // V1's one-ray jobs are the densest stock instrumentation; the
        // servant-only recorders exceed the sustained drain in the worst
        // case, but the FIFO absorbs the backlog (the E3 story).
        let (app, machine, zm4) = setup(Version::V1);
        let report = analyze_rate(&app, &machine, &zm4);
        assert!(report.contains("AN-RATE-003"), "{}", report.render());
        let (app, machine, zm4) = setup(Version::V4);
        let report = analyze_rate(&app, &machine, &zm4);
        assert!(
            report.is_clean(),
            "bundled jobs leave headroom:\n{}",
            report.render()
        );
    }

    #[test]
    fn over_instrumentation_predicts_loss() {
        let (mut app, machine, mut zm4) = setup(Version::V1);
        // Every node's stream multiplexed onto one recorder, send-results
        // instrumented, oversampling quadrupling the job count.
        app.instrument_send_results = true;
        app.oversample = 2;
        zm4.streams_per_recorder = 16;
        let report = analyze_rate(&app, &machine, &zm4);
        assert!(report.contains("AN-RATE-001"), "{}", report.render());
        assert!(report.has_errors());
    }

    #[test]
    fn monitoring_off_short_circuits() {
        let (app, mut machine, zm4) = setup(Version::V1);
        machine.monitoring = MonitoringMode::Off;
        let report = analyze_rate(&app, &machine, &zm4);
        assert!(!report.has_errors());
        assert_eq!(report.findings.len(), 1);
    }

    #[test]
    fn prediction_arithmetic_is_consistent() {
        let (app, machine, zm4) = setup(Version::V3);
        let p = predict(&app, &machine, &zm4);
        assert_eq!(p.channels.len(), 16);
        assert_eq!(p.recorders.len(), 4);
        for c in &p.channels {
            assert!(c.peak_hz > 0.0);
            assert!((c.peak_hz - c.events_per_job / c.min_seconds_per_job).abs() < 1e-9);
        }
        // Every channel lands on exactly one recorder.
        let assigned: usize = p.recorders.iter().map(|r| r.channels.len()).sum();
        assert_eq!(assigned, p.channels.len());
        // Bundled V3 jobs are far below the drain on every recorder.
        for r in &p.recorders {
            assert!(
                r.arrival_hz < r.drain_hz,
                "recorder {} overloaded",
                r.recorder
            );
        }
    }

    #[test]
    fn kernel_instrumentation_raises_density() {
        let (app, mut machine, zm4) = setup(Version::V4);
        let base = predict(&app, &machine, &zm4);
        machine.kernel_instrumentation = true;
        let instrumented = predict(&app, &machine, &zm4);
        for (b, k) in base.channels.iter().zip(&instrumented.channels) {
            assert!(k.events_per_job > b.events_per_job);
        }
    }

    #[test]
    fn backlog_peaks_at_a_busy_endpoint() {
        let fast = ChannelLoad {
            channel: 0,
            role: "servant",
            events_per_job: 1.0,
            min_seconds_per_job: 0.001,
            jobs: 1000.0,
            peak_hz: 9_000.0,
            busy_seconds: 1.0,
        };
        let slow = ChannelLoad {
            channel: 1,
            peak_hz: 6_000.0,
            busy_seconds: 3.0,
            ..fast.clone()
        };
        // Combined 15k vs 10k drain for 1 s (backlog 5k), then 6k vs 10k
        // drains it back down: the peak is at t = 1 s.
        let peak = peak_backlog(&[&fast, &slow], 10_000.0);
        assert!((peak - 5_000.0).abs() < 1e-6, "peak {peak}");
    }
}
