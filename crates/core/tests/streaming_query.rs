//! End-to-end check of the query layer against a retained-trace oracle.
//!
//! `query_many` folds each session's packets live on the engine's tap and
//! never builds a trace. The oracle runs the same specs through
//! `SessionSpec::run`, which retains the capture, and replays that trace
//! through freshly built folds. The replies must equal the oracle field by
//! field. This is the session-level form of the fold-vs-column-scan suite in
//! `vstream-analysis`: the folds are proven against the column scans there;
//! here the claim is that the live tap feeds them the packet stream the
//! trace records.

use vstream::prelude::*;
use vstream::{query_many_jobs, SessionAnswer, SessionQuery, SessionReply};
use vstream_analysis::{
    AnalysisFold, DownloadFold, SummariesFold, ThroughputFold, TotalsFold, WindowFold,
};

/// A small cell: short captures keep the test fast, pacing produces real
/// ON/OFF cycles.
fn specs() -> Vec<SessionSpec> {
    (0..4u64)
        .map(|i| {
            SessionSpec::new(
                Client::Firefox,
                Container::Flash,
                Video::new(i, 1_000_000, SimDuration::from_secs(600)),
                NetworkProfile::Research,
                0xF01D + i,
                SimDuration::from_secs(45),
            )
        })
        .collect()
}

const DOWNLOAD_STEP: SimDuration = SimDuration::from_millis(20);
const THROUGHPUT_BIN: SimDuration = SimDuration::from_millis(100);

fn full_query() -> SessionQuery {
    SessionQuery::default()
        .download(DOWNLOAD_STEP)
        .window(0)
        .throughput(THROUGHPUT_BIN)
        .onoff()
        .phases()
        .ack_clock()
        .summaries()
        .totals()
}

/// The answer `full_query` asks for, computed by replaying the retained
/// trace of `out` through one fresh fold per feature.
fn oracle(out: &CellOutcome) -> SessionAnswer {
    let trace = &out.trace;
    let mut download = DownloadFold::new(DOWNLOAD_STEP);
    trace.replay(&mut download);
    let mut window = WindowFold::new(0);
    trace.replay(&mut window);
    let mut throughput = ThroughputFold::new(THROUGHPUT_BIN);
    trace.replay(&mut throughput);
    let mut analysis = AnalysisFold::new(AnalysisConfig::default())
        .with_phases()
        .with_ack_clock(out.base_rtt);
    trace.replay(&mut analysis);
    let analysis = analysis.finish();
    let mut summaries = SummariesFold::new();
    trace.replay(&mut summaries);
    let mut totals = TotalsFold::new();
    trace.replay(&mut totals);
    SessionAnswer {
        download_mb: Some(download.finish()),
        window_series: Some(window.finish()),
        throughput: Some(throughput.finish()),
        onoff: Some(analysis.onoff),
        phases: analysis.phases,
        first_rtt_bytes: analysis.first_rtt_bytes,
        summaries: Some(summaries.finish()),
        totals: Some(totals.finish()),
        ..SessionAnswer::default()
    }
}

fn assert_reply_matches(reply: &SessionReply, out: &CellOutcome, i: usize) {
    let (aa, ab) = (&reply.answer, &oracle(out));
    assert_eq!(aa.download_mb, ab.download_mb, "reply {i} download");
    assert_eq!(aa.window_series, ab.window_series, "reply {i} window");
    assert_eq!(aa.throughput, ab.throughput, "reply {i} throughput");
    let (oa, ob) = (
        aa.onoff.as_ref().expect("onoff queried"),
        ab.onoff.as_ref().expect("onoff in oracle"),
    );
    assert_eq!(oa.cycles, ob.cycles, "reply {i} cycles");
    assert_eq!(oa.off_periods, ob.off_periods, "reply {i} off periods");
    let (pa, pb) = (
        aa.phases.as_ref().expect("phases queried"),
        ab.phases.as_ref().expect("phases in oracle"),
    );
    assert_eq!(pa.start, pb.start, "reply {i} phase start");
    assert_eq!(pa.buffering_end, pb.buffering_end, "reply {i} buffering end");
    assert_eq!(pa.buffering_bytes, pb.buffering_bytes, "reply {i} buffering bytes");
    assert_eq!(pa.steady_state_rate_bps, pb.steady_state_rate_bps, "reply {i} steady rate");
    assert_eq!(pa.total_bytes, pb.total_bytes, "reply {i} total bytes");
    assert_eq!(pa.duration, pb.duration, "reply {i} phase duration");
    assert_eq!(aa.first_rtt_bytes, ab.first_rtt_bytes, "reply {i} first-rtt");
    assert_eq!(aa.summaries, ab.summaries, "reply {i} summaries");
    assert_eq!(aa.totals, ab.totals, "reply {i} totals");

    assert_eq!(reply.connections, out.connections, "reply {i} connections");
    assert_eq!(reply.connection_stats, out.connection_stats, "reply {i} connection stats");
    assert_eq!(reply.base_rtt, out.base_rtt, "reply {i} base rtt");
    assert_eq!(reply.player_stats(), out.player_stats(), "reply {i} player stats");
}

#[test]
fn streaming_paths_match_batch_replies() {
    let specs = specs();
    let query = full_query();
    for jobs in [1, 2] {
        let replies = query_many_jobs(&specs, jobs, &query);
        assert_eq!(replies.len(), specs.len());
        for (i, (reply, spec)) in replies.iter().zip(&specs).enumerate() {
            let reply = reply.as_ref().expect("every session applies in this cell");
            let out = spec.run().expect("every session applies in this cell");
            assert!(!out.trace.is_empty(), "sessions produce traffic");
            assert_reply_matches(reply, &out, i);
        }
    }
}
