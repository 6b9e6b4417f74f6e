//! The repository's benchmark: one command, three workloads over the
//! public APIs of `hybrid`, `cad-net`, `fml` and `cad-vfs`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload design-flow --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` reruns the workload with spans
//! around every layer call and reports the per-layer metrics. See
//! `perfbench/README.md` for what each workload and metric is for.

mod common;
mod design_flow;
mod durable_shards;
mod wire_commit;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use common::{Metric, Report};

/// The workloads, in `BENCHMARK.json` order, with why each exists.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "design-flow",
        "two designers through an in-process Service: engine apply, encapsulation, fml triggers, publish, history ring; no wire, no durability",
    ),
    (
        "wire-commit",
        "the design-flow mix over loopback cad-net with two closed-loop connections; minus design-flow it isolates the wire",
    ),
    (
        "durable-shards",
        "a 2-shard ShardedService with 2PC, broadcasts and op-counted sync/checkpoint/compact into cad-vfs; no wire, fml or mirror cache",
    ),
];

/// End-to-end metrics: name, unit and the share of the parent's median
/// by which a change may worsen it. Every workload reports all of them.
pub const END_TO_END: [(&str, &str, f64); 8] = [
    ("commit_ops_s", "1/s", 0.2),
    ("commit_p50_ms", "ms", 0.2),
    ("commit_p99_ms", "ms", 0.24),
    ("read_p50_ms", "ms", 0.2),
    ("read_p99_ms", "ms", 0.24),
    ("restart_ms", "ms", 0.2),
    ("peak_rss_mb", "MiB", 0.1),
    ("setup_s", "s", 0.25),
];

/// Per-layer metrics of the traced run, with their units. A workload
/// whose path bypasses a layer reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("cad-net.client.send_op_p50_us", "us"),
    ("cad-net.client.recv_reply_p50_us", "us"),
    ("cad-net.client.recv_reply_p99_us", "us"),
    ("cad-net.client.history_read_p50_us", "us"),
    ("cad-net.proto.request_encode_p50_us", "us"),
    ("cad-net.proto.response_parse_p50_us", "us"),
    ("cad-net.server.frames_per_op", "frames"),
    ("cad-net.server.busy", "count"),
    ("cad-net.server.timeouts", "count"),
    ("cad-net.server.protocol_errors", "count"),
    ("hybrid.service.submit.create_project_p50_us", "us"),
    ("hybrid.service.submit.create_project_p99_us", "us"),
    ("hybrid.service.submit.create_cell_p50_us", "us"),
    ("hybrid.service.submit.create_cell_p99_us", "us"),
    ("hybrid.service.submit.create_cell_version_p50_us", "us"),
    ("hybrid.service.submit.create_cell_version_p99_us", "us"),
    ("hybrid.service.submit.reserve_p50_us", "us"),
    ("hybrid.service.submit.reserve_p99_us", "us"),
    ("hybrid.service.submit.run_activity_p50_us", "us"),
    ("hybrid.service.submit.run_activity_p99_us", "us"),
    ("hybrid.service.submit.publish_p50_us", "us"),
    ("hybrid.service.submit.publish_p99_us", "us"),
    ("hybrid.service.ops_per_batch", "ops"),
    ("hybrid.service.writer_waits", "count"),
    ("hybrid.service.max_queue_depth", "count"),
    ("fml.interp.trigger_p50_us", "us"),
    ("fml.interp.fuel_per_trigger", "fuel"),
    ("hybrid.session.read_design_data_p50_us", "us"),
    ("hybrid.session.read_design_data_p99_us", "us"),
    ("hybrid.session.browse_p50_us", "us"),
    ("hybrid.history.at_p50_us", "us"),
    ("hybrid.history.ring_hit_ratio", "ratio"),
    ("hybrid.history.impact_p50_us", "us"),
    ("hybrid.history.impact_p99_us", "us"),
    ("cad-vfs.blob.materialized_bytes", "bytes"),
    ("hybrid.shard.submit.local_p50_us", "us"),
    ("hybrid.shard.submit.local_p99_us", "us"),
    ("hybrid.shard.submit.cross_p50_us", "us"),
    ("hybrid.shard.submit.cross_p99_us", "us"),
    ("hybrid.shard.submit.broadcast_p50_us", "us"),
    ("hybrid.shard.submit.broadcast_p99_us", "us"),
    ("hybrid.shard.router_ns_per_op", "ns"),
    ("hybrid.shard.lane_busy_ns_per_op", "ns"),
    ("hybrid.shard.cross_commits", "count"),
    ("hybrid.shard.broadcasts", "count"),
    ("hybrid.shard.sync_p50_ms", "ms"),
    ("hybrid.shard.sync_p99_ms", "ms"),
    ("hybrid.shard.checkpoint_p50_ms", "ms"),
    ("hybrid.shard.checkpoint_p99_ms", "ms"),
    ("hybrid.shard.compact_p50_ms", "ms"),
    ("cad-vfs.bytes_written_per_op", "bytes"),
    ("cad-vfs.bytes_written_per_user_byte", "ratio"),
    ("cad-vfs.content_ops_per_op", "ops"),
    ("cad-vfs.metadata_ops_per_op", "ops"),
    ("cad-vfs.live_bytes", "bytes"),
    ("hybrid.shard.recover_p50_ms", "ms"),
    ("hybrid.shard.recover_replayed", "ops"),
    ("design-flow.unattributed_share", "ratio"),
    ("design-flow.tracing_overhead_ops_s", "1/s"),
    ("wire-commit.unattributed_share", "ratio"),
    ("wire-commit.tracing_overhead_ops_s", "1/s"),
    ("durable-shards.unattributed_share", "ratio"),
    ("durable-shards.tracing_overhead_ops_s", "1/s"),
];

/// `BENCHMARK.json`'s `run_seconds`, the default `--seconds`. It is a
/// size multiplier, not a time limit: each workload turns it into fixed
/// op counts (see [`run`]), so a run's wall time depends on the host and
/// the workload. `wire-commit` never runs fewer than 100 cell cycles,
/// about 45 s untraced at the 44 ms-per-op stall, whatever it says.
pub const RUN_SECONDS: u64 = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = RUN_SECONDS;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.clamp(1, 60),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs one workload at the size `seconds` asks for. Sizes are op
/// counts derived from `seconds` alone, never from elapsed time, so a
/// seed always produces the same op stream.
pub fn run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Report {
    let s = seconds as usize;
    match workload {
        "design-flow" => design_flow::run(
            seed,
            design_flow::Size {
                rounds: 3 * s,
                warmup: 12,
                cycles: 100,
                restarts: 1,
            },
            trace,
        ),
        // At least 1,000 timed writes and 1,000 timed reads, so each
        // p99 has ten samples beyond it whatever `seconds` says.
        "wire-commit" => wire_commit::run(
            seed,
            wire_commit::Size {
                warmup: 2,
                cycles: (10 * s).max(100),
                restarts: 2,
            },
            trace,
        ),
        "durable-shards" => durable_shards::run(
            seed,
            durable_shards::Size {
                rounds: 2 * s,
                warmup: 24,
                projects: 80,
                restarts: 5,
            },
            trace,
        ),
        other => unreachable!("workload {other} is validated by parse_args"),
    }
}

/// The metrics the result line carries: every end-to-end metric, or
/// with `trace` every per-layer metric (0 for a layer the workload's
/// path bypasses). A missing end-to-end metric is a failed check.
pub fn select_metrics(report: &mut Report, trace: bool) -> BTreeMap<String, Metric> {
    let mut out = BTreeMap::new();
    if trace {
        for (name, unit) in PER_LAYER {
            let value = match report.metrics.get(name) {
                Some(m) if m.unit != unit => {
                    let problem = format!("{name} measured in {}, not {unit}", m.unit);
                    report.fail(problem);
                    0.0
                }
                Some(m) => m.value,
                None => 0.0,
            };
            out.insert(name.to_owned(), Metric { value, unit });
        }
    } else {
        for (name, unit, _) in END_TO_END {
            match report.metrics.get(name) {
                Some(m) if m.unit == unit => {
                    out.insert(name.to_owned(), *m);
                }
                _ => report.fail(format!(
                    "end-to-end metric {name} ({unit}) was not measured"
                )),
            }
        }
    }
    out
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(report: &Report, metrics: &BTreeMap<String, Metric>) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `BENCHMARK.json`, generated from the lists above so the file and the
/// program cannot disagree.
pub fn spec_json() -> String {
    let quote = |s: &str| format!("\"{s}\"");
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--",
    ];
    let mut s = String::from("{\n");
    let cmd: Vec<String> = command.iter().map(|c| quote(c)).collect();
    let _ = writeln!(s, "  \"command\": [{}],", cmd.join(", "));
    let _ = writeln!(s, "  \"paths\": [\"perfbench\"],");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"why\": {}}}{sep}",
            quote(name),
            quote(why)
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, bound)) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let better = if *name == "commit_ops_s" {
            "higher"
        } else {
            "lower"
        };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": \"{better}\", \"bound\": {bound}}}{sep}",
            quote(name),
            quote(unit)
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit)) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let better = if name.ends_with("hit_ratio") || name.ends_with("ops_per_batch") {
            "higher"
        } else {
            "lower"
        };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": \"{better}\"}}{sep}",
            quote(name),
            quote(unit)
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--spec") {
        print!("{}", spec_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = run(&args.workload, args.seed, args.seconds, args.trace);
    let metrics = select_metrics(&mut report, args.trace);
    for problem in &report.problems {
        eprintln!("perfbench: FAILED CHECK: {problem}");
    }
    let counts: Vec<String> = report
        .counts
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!(
        "counts {} seed {}: {}",
        args.workload,
        args.seed,
        counts.join(" ")
    );
    println!(
        "fail_ratio {} ({} of {} ops)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    if let Some(tracer) = report.trace.take() {
        match tracer.write_out(&args.workload, args.seed) {
            Ok(path) => println!("spans written to {path} ({} spans)", tracer.spans.len()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    for (name, m) in &metrics {
        println!("{name} = {} {}", json_number(m.value), m.unit);
    }
    println!("{}", result_json(&report, &metrics));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, seed: u64, trace: bool) -> Report {
        match workload {
            "design-flow" => design_flow::run(
                seed,
                design_flow::Size {
                    rounds: 1,
                    warmup: 9,
                    cycles: 3,
                    restarts: 1,
                },
                trace,
            ),
            "wire-commit" => wire_commit::run(
                seed,
                wire_commit::Size {
                    warmup: 1,
                    cycles: 9,
                    restarts: 1,
                },
                trace,
            ),
            _ => durable_shards::run(
                seed,
                durable_shards::Size {
                    rounds: 1,
                    warmup: 20,
                    projects: 20,
                    restarts: 2,
                },
                trace,
            ),
        }
    }

    /// Every workload at a tiny size: no failed check (`fail_ratio == 0`),
    /// every named metric present, and the exact counts repeat for one
    /// seed.
    #[test]
    fn tiny_runs_are_correct_complete_and_repeatable() {
        for (workload, _) in WORKLOADS {
            let mut first = tiny(workload, 7, false);
            let metrics = select_metrics(&mut first, false);
            assert_eq!(first.failed, 0, "{workload}: {:?}", first.problems);
            assert!(first.attempted > 0);
            assert_eq!(metrics.len(), END_TO_END.len());
            for (name, m) in &metrics {
                assert!(m.value > 0.0, "{workload}: {name} is {}", m.value);
            }
            let again = tiny(workload, 7, false);
            assert_eq!(
                first.counts, again.counts,
                "{workload}: counts differ between runs"
            );

            let mut traced = tiny(workload, 7, true);
            let layers = select_metrics(&mut traced, true);
            assert_eq!(traced.failed, 0, "{workload}: {:?}", traced.problems);
            assert_eq!(layers.len(), PER_LAYER.len());
            let own = format!("{workload}.unattributed_share");
            assert!(traced.metrics.contains_key(&own), "{workload}: no {own}");
            let overhead = format!("{workload}.tracing_overhead_ops_s");
            assert!(
                traced.metrics.contains_key(&overhead),
                "{workload}: no {overhead}"
            );
            assert!(traced.trace.as_ref().is_some_and(|t| !t.spans.is_empty()));
        }
    }

    #[test]
    fn every_per_layer_metric_is_measured_by_some_workload() {
        let mut measured = std::collections::BTreeSet::new();
        for (workload, _) in WORKLOADS {
            measured.extend(tiny(workload, 3, true).metrics.into_keys());
        }
        for (name, _) in PER_LAYER {
            assert!(measured.contains(name), "no workload measures {name}");
        }
    }

    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, spec_json(), "regenerate with `perfbench --spec`");
    }

    #[test]
    fn arguments_are_validated() {
        let args = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "design-flow", "--seed", "x"]).is_err());
        let ok = args(&[
            "--workload",
            "wire-commit",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!((ok.seed, ok.seconds, ok.trace), (9, 3, true));
    }
}
