//! End-to-end benchmark: the full `repro all` figure/table suite at the
//! `repro` binary's default seed and sample size.
//!
//! The per-figure benchmarks in `figures.rs` deliberately run reduced
//! sample sizes, so this is the only benchmark whose wall clock tracks
//! what a user actually waits for.
//!
//! One iteration is a whole suite (~6 s), so the group uses two
//! single-iteration samples — this bench is a trajectory recorder, not a
//! microbenchmark. Record runs with e.g.
//!
//! ```text
//! cargo bench -p vstream-bench --bench repro_all -- \
//!     --json BENCH_repro_all.json --label <label>
//! ```

use std::hint::black_box;
use std::time::Duration;

use vstream_bench::harness::Criterion;
use vstream_bench::{criterion_group, criterion_main};

use vstream::figures as f;

/// Every id the `repro` binary runs under `all`, at its default
/// seed/sample clamps, outputs discarded.
fn repro_all_suite(seed: u64, n: usize) {
    black_box(f::fig1_phases(seed));
    black_box(f::fig2_short_onoff(seed));
    black_box(f::fig3a_flash_buffering(seed, n));
    black_box(f::fig3b_html5_buffering(seed, n));
    black_box(f::fig4_flash_steady_state(seed, n));
    black_box(f::fig5_html5_steady_state(seed, n));
    black_box(f::fig6a_long_onoff(seed));
    black_box(f::fig6b_long_blocks(seed, n.min(8)));
    black_box(f::fig7a_ipad_traces(seed));
    black_box(f::fig7b_ipad_block_vs_rate(seed, n));
    black_box(f::fig8_bulk_rates(seed, n));
    black_box(f::fig9_ack_clock(seed));
    black_box(f::fig9_idle_reset_ablation(seed));
    black_box(f::fig10_netflix_traces(seed));
    black_box(f::fig11_netflix_buffering(seed, n.min(6)));
    black_box(f::fig12_netflix_blocks(seed, n.min(4)));
    black_box(f::table1_strategy_matrix(seed));
    black_box(f::table2_strategy_comparison(seed, 60));
    black_box(f::model_aggregate_moments(seed, 4000.0));
    black_box(f::model_interruption_waste(seed));
    black_box(f::model_smoothing());
    black_box(f::ext_stall_vs_accumulation(seed, n.min(8)));
    black_box(f::ext_sack_ablation(seed));
    black_box(f::ext_congestion_ablation(seed));
    black_box(f::ext_third_moment(seed, 4000.0));
    black_box(f::ext_aggregate_packet_level(seed, 40, 1200.0));
    black_box(f::ext_qoe_load_sweep(seed, n.min(6)));
}

fn bench_repro_all(c: &mut Criterion) {
    let mut g = c.benchmark_group("repro_all");
    g.sample_size(2)
        .measurement_time(Duration::from_secs(12))
        .warm_up_time(Duration::from_millis(1));

    g.bench_function("suite", |b| b.iter(|| repro_all_suite(2026, 12)));
    g.finish();
}

criterion_group!(benches, bench_repro_all);
criterion_main!(benches);
