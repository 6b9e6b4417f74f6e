//! Wall-clock timing of every experiment runner: one group per table,
//! figure and §3 criterion of the paper.
//!
//! Run with `cargo bench -p bench`. Absolute numbers depend on the
//! host; the *shape* assertions live in the unit tests of each
//! experiment module and in `EXPERIMENTS.md`.

use std::hint::black_box;
use std::time::Instant;

use bench::{
    e10_throughput, e1_mapping, e2_e3_schemas, e4_concurrency, e5_consistency, e6_hierarchy, e7_ui,
    e8_flow, e9_performance,
};

/// Times `f` over `iters` iterations and prints mean per-iteration time.
fn time<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    // One warm-up iteration outside the measured window.
    black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let total = start.elapsed();
    println!(
        "{name:<40} {:>10.3} ms/iter  ({iters} iters, {:.3} s total)",
        total.as_secs_f64() * 1e3 / f64::from(iters),
        total.as_secs_f64()
    );
}

fn main() {
    println!("experiment timing (plain harness, mean over fixed iterations)");
    println!("{:-<78}", "");
    for width in [2usize, 8] {
        time(
            &format!("e1_table1_mapping/import_adder/{width}"),
            10,
            || e1_mapping::run(width),
        );
    }
    time(
        "e2_e3_figures/figure1_jcf_schema",
        10,
        e2_e3_schemas::run_e2,
    );
    time("e2_e3_figures/figure2_fmcad_walk", 10, || {
        e2_e3_schemas::run_e3(4)
    });
    for n in [2usize, 8] {
        time(&format!("e4_concurrency/both_backends/{n}"), 5, || {
            e4_concurrency::run(n, 4, 8, 1995)
        });
    }
    time("e5_consistency/inject_and_audit", 5, || {
        e5_consistency::run(8, 1995)
    });
    time("e6_hierarchy/bind_and_reject", 5, || e6_hierarchy::run(3));
    time("e7_ui/same_task_both_uis", 5, e7_ui::run);
    time("e8_flow/forced_vs_free", 5, || e8_flow::run(6, 6, 1995));
    for gates in [50usize, 800] {
        time(&format!("e9_performance/full_pipeline/{gates}"), 5, || {
            e9_performance::run(gates)
        });
    }
    time("e10_throughput/repeated_activity/800", 1, || {
        e10_throughput::run(800, 40)
    });
}
