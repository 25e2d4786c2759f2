//! `perfbench-probe` — per-layer timing probes for `perfbench/run.py`.
//!
//! Each probe is a span around one layer's public entry point, timed from
//! outside the program: nothing here adds instrumentation to the crates it
//! links. Probes run single-threaded (except the campaign, which uses
//! `--jobs` workers like `repro campaign`) and report the median of
//! repeated calls.
//!
//! ```text
//! perfbench-probe --seed 2026 --jobs 2 --campaign-ledger DIR
//! ```
//!
//! Prints one JSON object of `name: value` pairs on stdout. The names match
//! the `per_layer` metrics of `BENCHMARK.json`:
//!
//! - `engine.{bulk,paced,dash-lrd}.{run_ms,ns_per_event}`:
//!   `SessionSpec::run_with_scratch` on three fixed specs (a bulk and a
//!   server-paced 180 s session on Research, as in the `substrates` bench,
//!   and a DASH session on Home under LRD cross-traffic at 85% load);
//! - `capture.{pack,unpack}_ns_per_pkt`, `capture.packed_bytes_per_pkt`:
//!   `PackedTrace::{pack,unpack}` on the paced probe's trace;
//! - `analysis.{onoff,classify,phases,fold}_ns_per_pkt`:
//!   `OnOffAnalysis::from_trace`, `classify`, `SessionPhases::from_trace`
//!   and an `AnalysisFold` replay over the same trace;
//! - `model.fluid_moments_ms`: one `FluidSim::moments` row of `model-agg`;
//! - `campaign.tail_ms`: `run_campaign` at 1M viewers on a fully
//!   checkpointed ledger in `DIR` (an empty directory the probe fills
//!   first), i.e. everything but the packet shard, and
//!   `campaign.shard_ms`: the cold call's time minus that tail.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use vstream::obs::collector;
use vstream::prelude::*;
use vstream::{run_campaign, CampaignOptions, CampaignSpec};
use vstream_analysis::{AnalysisFold, OnOffAnalysis};
use vstream_capture::PackedTrace;
use vstream_model::{FluidSim, FluidStrategy, PopulationModel};
use vstream_obs::Counter;

/// Repeats `f` at least `min_iters` times and until `budget` is spent (at
/// most `max_iters` times), returning the median call time in nanoseconds.
fn median_ns(min_iters: usize, max_iters: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_iters || (samples.len() < max_iters && started.elapsed() < budget) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

fn bulk_spec(seed: u64) -> SessionSpec {
    SessionSpec::new(
        Client::Firefox,
        Container::Html5,
        Video::new(1, 2_000_000, SimDuration::from_secs(120)),
        NetworkProfile::Research,
        seed,
        SimDuration::from_secs(180),
    )
}

fn paced_spec(seed: u64) -> SessionSpec {
    SessionSpec::new(
        Client::Firefox,
        Container::Flash,
        Video::new(1, 1_000_000, SimDuration::from_secs(2400)),
        NetworkProfile::Research,
        seed,
        SimDuration::from_secs(180),
    )
}

fn dash_lrd_spec(seed: u64) -> SessionSpec {
    let down = NetworkProfile::Home.down_bps();
    SessionSpec::new(
        Client::Dash,
        Container::Html5,
        Video::new(1, 1_000_000, SimDuration::from_secs(2400)),
        NetworkProfile::Home,
        seed,
        SimDuration::from_secs(180),
    )
    .with_lrd_cross(LrdCrossConfig::for_load(down, 850))
}

struct Report(Vec<(String, f64)>);

impl Report {
    fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v:.6}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Times `run_with_scratch` on `spec`, returning its retained outcome.
/// The event count comes from one metered run (the engine harvests its
/// counters only while a collector is installed); the timed runs are
/// unmetered.
fn probe_engine(report: &mut Report, name: &str, spec: &SessionSpec) -> CellOutcome {
    let mut scratch = SessionScratch::new();
    collector::install(true);
    let out = spec
        .run_with_scratch(&mut scratch)
        .expect("probe spec is a valid cell");
    let events = scratch.metrics().counter(Counter::SimEventsScheduled);
    scratch.metrics_mut().take();
    collector::take();
    let ns = median_ns(5, 200, Duration::from_millis(600), || {
        black_box(spec.run_with_scratch(&mut scratch).map(|o| o.trace.len()));
    });
    report.put(&format!("engine.{name}.run_ms"), ns / 1e6);
    report.put(
        &format!("engine.{name}.ns_per_event"),
        ns / events.max(1) as f64,
    );
    out
}

fn probe_trace_layers(report: &mut Report, out: &CellOutcome) {
    let trace = &out.trace;
    let pkts = trace.len().max(1) as f64;
    let cfg = AnalysisConfig::default();
    let budget = Duration::from_millis(250);

    let packed = PackedTrace::pack(trace);
    let pack = median_ns(5, 400, budget, || {
        black_box(PackedTrace::pack(black_box(trace)).packed_bytes());
    });
    let unpack = median_ns(5, 400, budget, || {
        black_box(black_box(&packed).unpack().len());
    });
    report.put("capture.pack_ns_per_pkt", pack / pkts);
    report.put("capture.unpack_ns_per_pkt", unpack / pkts);
    report.put(
        "capture.packed_bytes_per_pkt",
        packed.packed_bytes() as f64 / pkts,
    );

    let onoff = median_ns(5, 400, budget, || {
        black_box(OnOffAnalysis::from_trace(trace, &cfg));
    });
    let class = median_ns(5, 400, budget, || {
        black_box(classify(trace, &cfg));
    });
    let phases = median_ns(5, 400, budget, || {
        black_box(SessionPhases::from_trace(trace, &cfg));
    });
    let fold = median_ns(5, 400, budget, || {
        let mut f = AnalysisFold::new(cfg.clone()).with_phases();
        trace.replay(&mut f);
        black_box(f.finish());
    });
    report.put("analysis.onoff_ns_per_pkt", onoff / pkts);
    report.put("analysis.classify_ns_per_pkt", class / pkts);
    report.put("analysis.phases_ns_per_pkt", phases / pkts);
    report.put("analysis.fold_ns_per_pkt", fold / pkts);
}

fn probe_model(report: &mut Report, seed: u64) {
    let pop = PopulationModel {
        lambda: 1.0,
        encoding_bps: (0.5e6, 1.5e6),
        duration_secs: (120.0, 360.0),
        bandwidth_bps: (5e6, 15e6),
    };
    let sim = FluidSim::new(pop, FluidStrategy::short_cycles());
    let ns = median_ns(5, 50, Duration::from_millis(400), || {
        black_box(sim.moments(seed, 4000.0, 0.5));
    });
    report.put("model.fluid_moments_ms", ns / 1e6);
}

fn probe_campaign(report: &mut Report, seed: u64, ledger: PathBuf) {
    let mut spec = CampaignSpec::for_viewers(1_000_000);
    spec.seed = seed;
    let opts = CampaignOptions {
        jobs: 0,
        ledger_dir: Some(ledger),
        max_shards: None,
        progress: false,
    };
    let timed = || {
        let t = Instant::now();
        let r = run_campaign(&spec, &opts).expect("no shard limit");
        (t.elapsed().as_nanos() as f64, r.key)
    };
    let (total, key) = timed();
    let (tail, resumed_key) = timed();
    assert_eq!(key, resumed_key, "resumed campaign has another key");
    report.put("campaign.tail_ms", tail / 1e6);
    report.put("campaign.shard_ms", (total - tail) / 1e6);
}

fn usage() -> ! {
    eprintln!("usage: perfbench-probe --seed N --jobs N --campaign-ledger DIR");
    std::process::exit(2);
}

fn main() {
    let mut seed: Option<u64> = None;
    let mut jobs: Option<usize> = None;
    let mut ledger: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage())),
            "--jobs" => jobs = Some(value.parse().unwrap_or_else(|_| usage())),
            "--campaign-ledger" => ledger = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    let (Some(seed), Some(jobs), Some(ledger)) = (seed, jobs, ledger) else {
        usage()
    };
    if jobs == 0 {
        usage();
    }
    set_default_jobs(jobs);

    let mut report = Report(Vec::new());
    probe_engine(&mut report, "bulk", &bulk_spec(seed));
    let paced = probe_engine(&mut report, "paced", &paced_spec(seed));
    probe_engine(&mut report, "dash-lrd", &dash_lrd_spec(seed));
    probe_trace_layers(&mut report, &paced);
    probe_model(&mut report, seed);
    probe_campaign(&mut report, seed, ledger);
    println!("{}", report.to_json());
}
