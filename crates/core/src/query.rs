//! The figure drivers' session interface: ask for features, not traces.
//!
//! A [`SessionQuery`] names the reductions a driver needs — download
//! series, receive-window series, ON/OFF analysis, phase decomposition,
//! ack-clock samples, capture totals — and [`query_many`] resolves a batch
//! of specs into [`SessionReply`]s carrying exactly those features.
//!
//! Every feature is computed by an incremental fold operator
//! ([`vstream_analysis::fold`]) riding the engine's live packet tap
//! ([`Engine::run_observed`](vstream_app::engine::Engine::run_observed)).
//! No session behind a query materialises a [`Trace`](vstream_capture::Trace):
//! peak memory per worker is O(flows + figure points) of fold state — the
//! `peak_flowstate_bytes` ledger gauge — not O(packets) of trace columns.
//! The same folds replayed over a retained trace
//! ([`SessionSpec::run`](crate::session::SessionSpec::run) plus
//! [`Trace::replay`](vstream_capture::Trace::replay)) give bit-identical
//! answers; the equivalence tests use that as their oracle.

use vstream_analysis::{
    AnalysisConfig, AnalysisFold, CaptureTotals, DownloadFold, OnOffAnalysis, SessionPhases,
    SummariesFold, SwitchCounts, SwitchRateFold, ThroughputFold, TotalsFold, WindowFold,
};
use vstream_app::PlayerStats;
use vstream_capture::{ConnectionSummary, PacketSink, TapPacket};
use vstream_sim::{SimDuration, SimTime};
use vstream_tcp::EndpointStats;
use vstream_workload::StrategyLogic;

use crate::session::{default_jobs, SessionSpec};

/// The features a figure driver wants from each session.
#[derive(Clone, Debug)]
pub struct SessionQuery {
    /// Downsampled cumulative-download series at this grid step.
    pub download_step: Option<SimDuration>,
    /// Advertised receive-window series of this connection.
    pub window_conn: Option<u32>,
    /// Incoming goodput timeline at this bin width.
    pub throughput_bin: Option<SimDuration>,
    /// ON/OFF cycle analysis.
    pub onoff: bool,
    /// Buffering/steady-state phase decomposition (implies cycle detection).
    pub phases: bool,
    /// First-RTT bytes per steady-state ON period (the ack-clock test).
    pub ack_clock: bool,
    /// Per-connection summaries.
    pub summaries: bool,
    /// Whole-capture totals (downloaded bytes, retx rate, duration).
    pub totals: bool,
    /// Per-session QoE summary (startup delay, stalls, block cadence).
    ///
    /// Unlike every other feature this is not a packet fold: QoE is an
    /// application-layer reduction of the player's unconditional
    /// statistics ([`crate::qoe::QoeSummary::of`]), filled at reply
    /// assembly from the session's strategy logic.
    pub qoe: bool,
    /// Wire-side bitrate-switch estimate against this segment ladder (the
    /// `ext-qoe` table's cross-check of the client's own switch counter).
    pub switch_rate: Option<SwitchRateQuery>,
    /// Thresholds for the cycle/phase analyses.
    pub config: AnalysisConfig,
}

/// Parameters of the wire-side switch-rate estimate: the ABR client's
/// segment ladder and playback length, which [`SwitchRateFold`] needs to
/// classify connections to rungs.
#[derive(Clone, Debug)]
pub struct SwitchRateQuery {
    /// Available encoding rates in bits per second, ascending.
    pub ladder: Vec<u64>,
    /// Playback milliseconds per segment.
    pub segment_ms: u64,
}

impl Default for SessionQuery {
    fn default() -> Self {
        SessionQuery {
            download_step: None,
            window_conn: None,
            throughput_bin: None,
            onoff: false,
            phases: false,
            ack_clock: false,
            summaries: false,
            totals: false,
            qoe: false,
            switch_rate: None,
            config: AnalysisConfig::default(),
        }
    }
}

impl SessionQuery {
    /// An empty query with explicit analysis thresholds.
    pub fn with_config(config: AnalysisConfig) -> Self {
        SessionQuery {
            config,
            ..SessionQuery::default()
        }
    }

    /// Requests the download series on a `step` grid.
    pub fn download(mut self, step: SimDuration) -> Self {
        self.download_step = Some(step);
        self
    }

    /// Requests `conn`'s receive-window series.
    pub fn window(mut self, conn: u32) -> Self {
        self.window_conn = Some(conn);
        self
    }

    /// Requests the binned throughput timeline.
    pub fn throughput(mut self, bin: SimDuration) -> Self {
        self.throughput_bin = Some(bin);
        self
    }

    /// Requests the ON/OFF cycle analysis.
    pub fn onoff(mut self) -> Self {
        self.onoff = true;
        self
    }

    /// Requests the phase decomposition.
    pub fn phases(mut self) -> Self {
        self.phases = true;
        self
    }

    /// Requests the ack-clock samples.
    pub fn ack_clock(mut self) -> Self {
        self.ack_clock = true;
        self
    }

    /// Requests per-connection summaries.
    pub fn summaries(mut self) -> Self {
        self.summaries = true;
        self
    }

    /// Requests the capture totals.
    pub fn totals(mut self) -> Self {
        self.totals = true;
        self
    }

    /// Requests the per-session QoE summary.
    pub fn qoe(mut self) -> Self {
        self.qoe = true;
        self
    }

    /// Requests the wire-side switch-rate estimate against `ladder`
    /// (ascending bits per second) at `segment_ms` playback per segment.
    pub fn switch_rate(mut self, ladder: Vec<u64>, segment_ms: u64) -> Self {
        self.switch_rate = Some(SwitchRateQuery { ladder, segment_ms });
        self
    }

    fn wants_analysis(&self) -> bool {
        self.onoff || self.phases || self.ack_clock
    }
}

/// The requested features of one session. Fields are `Some` exactly when
/// the query asked for them.
#[derive(Clone, Debug, Default)]
pub struct SessionAnswer {
    /// `(secs, megabytes)` download points on the query's grid.
    pub download_mb: Option<Vec<(f64, f64)>>,
    /// `(time, window_bytes)` of the queried connection.
    pub window_series: Option<Vec<(SimTime, u64)>>,
    /// `(bin_start, bits_per_sec)` goodput timeline.
    pub throughput: Option<Vec<(SimTime, f64)>>,
    /// Filtered ON/OFF analysis.
    pub onoff: Option<OnOffAnalysis>,
    /// Phase decomposition.
    pub phases: Option<SessionPhases>,
    /// First-RTT bytes per steady-state cycle.
    pub first_rtt_bytes: Option<Vec<u64>>,
    /// Per-connection summaries, ordered by connection id.
    pub summaries: Option<Vec<ConnectionSummary>>,
    /// Whole-capture totals.
    pub totals: Option<CaptureTotals>,
    /// Per-session QoE summary.
    pub qoe: Option<crate::qoe::QoeSummary>,
    /// Wire-side segment/switch counts against the query's ladder.
    pub switch_counts: Option<SwitchCounts>,
}

/// Everything [`query_many`] returns per session: the computed features
/// plus the non-trace outcome fields
/// ([`CellOutcome`](crate::session::CellOutcome) minus the capture).
#[derive(Clone)]
pub struct SessionReply {
    /// The requested features.
    pub answer: SessionAnswer,
    /// The strategy logic after the run (player stats, read counters).
    pub logic: StrategyLogic,
    /// Number of TCP connections the session opened.
    pub connections: usize,
    /// Per-connection endpoint statistics `(client, server)`.
    pub connection_stats: Vec<(EndpointStats, EndpointStats)>,
    /// The base round-trip time of the path.
    pub base_rtt: SimDuration,
}

impl SessionReply {
    /// The player statistics.
    pub fn player_stats(&self) -> PlayerStats {
        self.logic.player().stats()
    }
}

impl crate::session::HasLogic for SessionReply {
    fn strategy_logic(&self) -> &StrategyLogic {
        &self.logic
    }
}

/// One sink dispatching the packet stream to every fold the query enabled.
pub(crate) struct CompositeFold {
    download: Option<DownloadFold>,
    window: Option<WindowFold>,
    throughput: Option<ThroughputFold>,
    analysis: Option<AnalysisFold>,
    summaries: Option<SummariesFold>,
    totals: Option<TotalsFold>,
    switch_rate: Option<SwitchRateFold>,
}

impl CompositeFold {
    /// Builds the folds for `query`. `base_rtt` parameterises the ack-clock
    /// fold and may be anything when the query does not ask for it.
    pub(crate) fn new(query: &SessionQuery, base_rtt: SimDuration) -> Self {
        let analysis = query.wants_analysis().then(|| {
            let mut a = AnalysisFold::new(query.config.clone());
            if query.phases {
                a = a.with_phases();
            }
            if query.ack_clock {
                a = a.with_ack_clock(base_rtt);
            }
            a
        });
        CompositeFold {
            download: query.download_step.map(DownloadFold::new),
            window: query.window_conn.map(WindowFold::new),
            throughput: query.throughput_bin.map(ThroughputFold::new),
            analysis,
            summaries: query.summaries.then(SummariesFold::new),
            totals: query.totals.then(TotalsFold::new),
            switch_rate: query.switch_rate.as_ref().map(|_| SwitchRateFold::new()),
        }
    }

    /// Heap bytes held across all enabled folds (the
    /// `peak_flowstate_bytes` sample).
    pub(crate) fn approx_bytes(&self) -> usize {
        self.download.as_ref().map_or(0, DownloadFold::approx_bytes)
            + self.window.as_ref().map_or(0, WindowFold::approx_bytes)
            + self.throughput.as_ref().map_or(0, ThroughputFold::approx_bytes)
            + self.analysis.as_ref().map_or(0, AnalysisFold::approx_bytes)
            + self.summaries.as_ref().map_or(0, SummariesFold::approx_bytes)
            + self.totals.as_ref().map_or(0, TotalsFold::approx_bytes)
            + self.switch_rate.as_ref().map_or(0, SwitchRateFold::approx_bytes)
    }

    /// Closes every fold into the answer.
    pub(crate) fn finish(self, query: &SessionQuery) -> SessionAnswer {
        let analysis = self.analysis.map(AnalysisFold::finish);
        let (onoff, phases, first_rtt_bytes) = match analysis {
            Some(a) => (query.onoff.then_some(a.onoff), a.phases, a.first_rtt_bytes),
            None => (None, None, None),
        };
        SessionAnswer {
            download_mb: self.download.map(DownloadFold::finish),
            window_series: self.window.map(WindowFold::finish),
            throughput: self.throughput.map(ThroughputFold::finish),
            onoff,
            phases,
            first_rtt_bytes,
            summaries: self.summaries.map(SummariesFold::finish),
            totals: self.totals.map(TotalsFold::finish),
            // Not a packet fold — the reply assembler fills it from the
            // session's strategy logic when the query asks.
            qoe: None,
            switch_counts: self.switch_rate.map(|f| {
                let q = query
                    .switch_rate
                    .as_ref()
                    .expect("the fold exists only when the query asked");
                f.finish(&q.ladder, q.segment_ms)
            }),
        }
    }
}

impl PacketSink for CompositeFold {
    fn packet(&mut self, p: &TapPacket) {
        if let Some(f) = &mut self.download {
            f.packet(p);
        }
        if let Some(f) = &mut self.window {
            f.packet(p);
        }
        if let Some(f) = &mut self.throughput {
            f.packet(p);
        }
        if let Some(f) = &mut self.analysis {
            f.packet(p);
        }
        if let Some(f) = &mut self.summaries {
            f.packet(p);
        }
        if let Some(f) = &mut self.totals {
            f.packet(p);
        }
        if let Some(f) = &mut self.switch_rate {
            f.packet(p);
        }
    }
}

/// Resolves every spec into the queried features, up to
/// [`default_jobs`](crate::session::default_jobs) sessions in parallel,
/// ordered by spec index. `None` marks inapplicable Table 1 cells.
///
/// This is [`run_many`](crate::session::run_many) with the trace factored
/// out: the reply carries features and the small outcome fields only, so
/// peak memory per worker is the fold state, never a trace.
pub fn query_many(specs: &[SessionSpec], query: &SessionQuery) -> Vec<Option<SessionReply>> {
    query_many_jobs(specs, default_jobs(), query)
}

/// [`query_many`] with an explicit worker count.
pub fn query_many_jobs(
    specs: &[SessionSpec],
    jobs: usize,
    query: &SessionQuery,
) -> Vec<Option<SessionReply>> {
    crate::session::batch_resolve(
        specs,
        jobs,
        |spec, scratch| spec.resolve(scratch, query),
        |_, reply: &SessionReply| reply.clone(),
    )
}
