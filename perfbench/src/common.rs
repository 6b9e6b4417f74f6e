//! Shared pieces of the three workloads: the seeded generator, sample
//! statistics, the span recorder and the run report.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use cad_vfs::{Blob, SplitMix64};
use fml::{FmlError, FmlResult, Host, Interp, Value};

/// Schematic bytes of the designs the workloads write, taken from the
/// repository's E9 size sweep (EXPERIMENTS.md, E9), where the netlist of
/// a generated random-logic design of 10 gates is 649 bytes and one of
/// 50 gates 3,216 bytes. Both are small designs, the size at which the
/// paper finds the hybrid's overhead acceptable (§3.6); see the README
/// for why the sweep's larger rows are left to E9.
pub const DESIGN_10_GATES: usize = 649;
/// See [`DESIGN_10_GATES`].
pub const DESIGN_50_GATES: usize = 3_216;

/// Commits the history ring keeps: `design-flow` and `wire-commit` build
/// their services with `RetentionPolicy::LastN(RING)`, so the ring
/// length is the workload's choice, not a library default.
pub const RING: u64 = 64;
/// How many cells back an evicted history read reaches. Every workload
/// that uses it commits at least ten writes per cell, so eight cells
/// back is past [`RING`].
pub const EVICT_BACK: usize = 8;

/// Netlist-shaped payloads of a fixed length. The gate lines are drawn
/// once from the seed; each payload starts with a header line naming its
/// tag and a fresh random word, so no two payloads are equal, the seed
/// changes bytes but never the amount of work, and making one costs a
/// copy rather than formatting thousands of lines inside a timed phase.
#[derive(Debug, Clone)]
pub struct Netlists {
    body: Vec<u8>,
}

impl Netlists {
    pub fn new(rng: &mut SplitMix64) -> Netlists {
        let mut s = String::with_capacity(DESIGN_50_GATES + 64);
        while s.len() < DESIGN_50_GATES {
            let r = rng.next_u64();
            let _ = writeln!(
                s,
                "inst g{:x} nand2 n{:x} n{:x} n{:x}",
                r & 0xffff,
                (r >> 16) & 0xfff,
                (r >> 28) & 0xfff,
                (r >> 40) & 0xfff
            );
        }
        Netlists {
            body: s.into_bytes(),
        }
    }

    /// A fresh payload of exactly `len` bytes (at most [`DESIGN_50_GATES`]).
    pub fn fresh(&self, rng: &mut SplitMix64, tag: &str, len: usize) -> Blob {
        let mut v = format!("netlist {tag} {:016x}\n", rng.next_u64()).into_bytes();
        v.truncate(len);
        let rest = len - v.len();
        v.extend_from_slice(&self.body[..rest]);
        v.into()
    }
}

/// Runs rounds `0..rounds` through `round(r, reported)`. A traced run
/// also runs each round unreported (untraced), alternating which of the
/// two goes first so host drift hits both alike; the difference in
/// throughput is the tracing overhead.
pub fn alternate_rounds(rounds: usize, trace: bool, mut round: impl FnMut(usize, bool)) {
    for r in 0..rounds {
        if trace && r % 2 == 0 {
            round(r, false);
        }
        round(r, true);
        if trace && r % 2 == 1 {
            round(r, false);
        }
    }
}

/// The customisation script every in-process and wire workload installs:
/// a `data-changed` trigger that checksums the mirrored cellview path
/// and logs it, so firings can be counted from the FMCAD script log.
pub const TRIGGER_SCRIPT: &str = "
    (define (on-data-changed path)
      (define acc 0)
      (define i 0)
      (while (< i 24)
        (set! acc (+ acc (* i 7) (length (string-append path \"#\" (to-string i)))))
        (set! i (+ i 1)))
      (host-call \"log\" path)
      acc)
    (host-call \"register-trigger\" \"data-changed\" \"on-data-changed\")";

/// The trigger procedure the script registers.
pub const TRIGGER_PROC: &str = "on-data-changed";

/// The host side of [`TRIGGER_SCRIPT`] for a stand-alone interpreter:
/// it accepts the two host calls the script makes.
#[derive(Debug, Default)]
struct TriggerHost;

impl Host for TriggerHost {
    fn host_call(&mut self, name: &str, _args: &[Value]) -> FmlResult<Value> {
        match name {
            "register-trigger" => Ok(Value::Bool(true)),
            "log" => Ok(Value::nil()),
            other => Err(FmlError::HostError(format!("unknown host call {other}"))),
        }
    }
}

/// The workload's trigger, run through `fml::Interp::call` on the
/// arguments the engine fired it with, each paired with the index of the
/// workload op whose output fired it. Returns per-call nanoseconds and
/// the total fuel burned.
pub fn replay_triggers(firings: &[(u64, String)], tracer: &mut Tracer) -> (Vec<u64>, u64) {
    let mut interp = Interp::new();
    interp
        .run(TRIGGER_SCRIPT, &mut TriggerHost)
        .expect("trigger script compiles");
    let mut times = Vec::with_capacity(firings.len());
    let mut fuel = 0;
    for (op, path) in firings {
        let argv = [Value::Str(path.clone())];
        let start = Instant::now();
        // Timed after the op returned, so left out of its attributed time.
        let out = tracer.span("fml.interp.trigger", *op, true, || {
            interp.call(TRIGGER_PROC, &argv, &mut TriggerHost)
        });
        times.push(start.elapsed().as_nanos() as u64);
        out.expect("trigger runs within its fuel budget");
        fuel += interp.fuel_used();
    }
    (times, fuel)
}

/// Nearest-rank percentile of `samples` (sorted in place), in the
/// samples' unit. Empty input reads as 0.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of float samples.
pub fn median_f64(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of nanosecond samples, in units of `per_unit` ns (1e9 for
/// seconds, 1e6 for milliseconds).
pub fn median_ns(ns: &[u64], per_unit: f64) -> f64 {
    let v: Vec<f64> = ns.iter().map(|&n| n as f64 / per_unit).collect();
    median_f64(&v)
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One traced interval, recorded by benchmark code around a call into a
/// layer's public function.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The workload op (its index in the generated stream) that caused it.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Whether the span is left out of the op's attributed time: a
    /// server-side call inside a client round trip, or a stand-alone
    /// replica timed after the op returned.
    pub nested: bool,
}

/// In-memory span recorder. With tracing off, `span` only runs the call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Per-op wall time, for the unattributed share.
    pub ops: Vec<(u64, u64)>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            ops: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        nested: bool,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            start_ns,
            end_ns,
            nested,
        });
        out
    }

    /// Records the whole wall time of one workload op.
    pub fn op_time(&mut self, op: u64, ns: u64) {
        if self.on {
            self.ops.push((op, ns));
        }
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        self.ops.extend(other.ops);
    }

    /// Durations of every span called `name`, nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Share of op wall time not covered by the op's top-level spans.
    pub fn unattributed_share(&self) -> f64 {
        let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| !s.nested) {
            *covered.entry(s.op).or_default() += s.end_ns - s.start_ns;
        }
        let (mut total, mut gap) = (0u64, 0u64);
        for &(op, ns) in &self.ops {
            total += ns;
            gap += ns.saturating_sub(covered.get(&op).copied().unwrap_or(0));
        }
        gap as f64 / total.max(1) as f64
    }

    /// Writes every span as tab-separated lines under `.bench_out/`.
    pub fn write_out(&self, workload: &str, seed: u64) -> std::io::Result<String> {
        std::fs::create_dir_all(".bench_out")?;
        let path = format!(".bench_out/spans-{workload}-seed{seed}.tsv");
        let mut text = String::from("name\top\tstart_ns\tend_ns\tnested\n");
        for s in &self.spans {
            let _ = writeln!(
                text,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.op, s.start_ns, s.end_ns, s.nested
            );
        }
        std::fs::write(&path, text)?;
        Ok(path)
    }
}

/// A measured value with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Workload ops attempted (writes, reads and durability calls).
    pub attempted: u64,
    /// Ops whose outcome differed from the generator's expectation, plus
    /// failed end-of-run checks.
    pub failed: u64,
    /// A description of each failure, for the log.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<String, Metric>,
    /// Counts that must repeat exactly for one seed.
    pub counts: BTreeMap<&'static str, u64>,
    /// The spans of a traced run, written out when the run ends.
    pub trace: Option<Tracer>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), Metric { value, unit });
    }

    pub fn count(&mut self, name: &'static str, value: u64) {
        self.counts.insert(name, value);
    }

    /// Records a failed check.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.failed += 1;
        let problem = problem.into();
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Compares two sets of exact counts, failing on every difference.
    pub fn same_counts(
        &mut self,
        what: &str,
        a: &BTreeMap<&'static str, u64>,
        b: &BTreeMap<&'static str, u64>,
    ) {
        for (name, va) in a {
            let vb = b.get(name).copied();
            if vb != Some(*va) {
                self.fail(format!(
                    "{what}: count {name} is {va} live but {vb:?} on replay"
                ));
            }
        }
    }

    /// `p50`/`p99` of a latency sample set, in `unit` (`ms` or `us`).
    pub fn latency(&mut self, prefix: &str, samples: &mut [u64], unit: &'static str, tail: bool) {
        let per_unit = if unit == "ms" { 1e6 } else { 1e3 };
        let conv = |ns: u64| ns as f64 / per_unit;
        self.metric(
            format!("{prefix}_p50_{unit}"),
            conv(percentile(samples, 50.0)),
            unit,
        );
        if tail {
            self.metric(
                format!("{prefix}_p99_{unit}"),
                conv(percentile(samples, 99.0)),
                unit,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&mut v, 50.0), 500);
        assert_eq!(percentile(&mut v, 99.0), 990);
        assert_eq!(percentile(&mut [], 99.0), 0);
    }

    #[test]
    fn payloads_have_fixed_length_and_vary_with_the_seed() {
        let mut rng = SplitMix64::new(1);
        let netlists = Netlists::new(&mut rng);
        for len in [DESIGN_10_GATES, DESIGN_50_GATES] {
            let a = netlists.fresh(&mut rng, "x", len);
            let b = netlists.fresh(&mut rng, "x", len);
            assert_eq!((a.len(), b.len()), (len, len));
            assert_ne!(a.as_slice(), b.as_slice());
        }
        let mut other = SplitMix64::new(2);
        let c = Netlists::new(&mut other).fresh(&mut other, "x", DESIGN_10_GATES);
        let a = Netlists::new(&mut SplitMix64::new(1)).fresh(&mut rng, "x", DESIGN_10_GATES);
        assert_ne!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn traced_rounds_alternate_with_untraced_ones() {
        let mut seen = Vec::new();
        alternate_rounds(3, true, |r, reported| seen.push((r, reported)));
        assert_eq!(
            seen,
            [
                (0, false),
                (0, true),
                (1, true),
                (1, false),
                (2, false),
                (2, true)
            ]
        );
        seen.clear();
        alternate_rounds(2, false, |r, reported| seen.push((r, reported)));
        assert_eq!(seen, [(0, true), (1, true)]);
    }
}
