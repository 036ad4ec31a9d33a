//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest-twitter|ingest-hn|serve-read|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its input from `--seed`, sets the workload up
//! (several times, reporting the median set-up time), checks the answers
//! (exiting nonzero on a mismatch, before anything is timed), and then
//! measures for `--seconds`. With `--trace 0` the last stdout line holds
//! the end-to-end metrics; with `--trace 1` the same window is measured,
//! spans are built from its samples once it has ended, and the last line
//! holds the per-layer metrics, the tracing overhead, and the accounting
//! checks. The line before it describes the run (seed, cores, threads,
//! input sizes). The metric names and units are listed in
//! `BENCHMARK.json` and explained in `perfbench/NOTES.md`.

mod canon;
mod ingest;
mod pace;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Threads given to `Relation::try_load_ondemand`.
pub const LOAD_THREADS: usize = 2;

/// End-to-end metrics `--trace 0` prints on every workload, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("ingest_mb_s", "MB/s"),
    ("stored_bytes_per_input_byte", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `--trace 1` prints on every workload, with units.
/// A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("json.tape_ms", "ms"),
    ("core.shape_ms", "ms"),
    ("core.distinct_shapes", "count"),
    ("core.shape_dedup_ratio", "ratio"),
    ("mining.mine_busy_ms", "ms"),
    ("core.reorder_busy_ms", "ms"),
    ("core.reorder_share", "ratio"),
    ("core.partitions", "count"),
    ("core.extract_busy_ms", "ms"),
    ("jsonb.encode_busy_ms", "ms"),
    ("core.materialize_ms", "ms"),
    ("core.load_wall_ms", "ms"),
    ("core.save_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("query.plan_ms", "ms"),
    ("query.pass.predicate-pushdown_us", "us"),
    ("query.pass.projection-pushdown_us", "us"),
    ("query.pass.join-reorder_us", "us"),
    ("query.pass.bound-propagation_us", "us"),
    ("query.scan_ms", "ms"),
    ("query.tiles_skipped_ratio", "ratio"),
    ("query.rows_scanned_per_row_out", "ratio"),
    ("query.join_build_ms", "ms"),
    ("query.join_probe_ms", "ms"),
    ("query.agg_ms", "ms"),
    ("query.sort_ms", "ms"),
    ("server.queue_wait_p50_ms", "ms"),
    ("server.queue_wait_p99_ms", "ms"),
    ("server.exec_ms", "ms"),
    ("server.respond_ms", "ms"),
    ("server.client_gap_ms", "ms"),
    ("server.append_p50_ms", "ms"),
    ("server.append_p99_ms", "ms"),
    ("server.publish_p50_ms", "ms"),
    ("server.publish_share", "ratio"),
    ("server.writer_late_ms", "ms"),
    ("server.generation_rows_end", "count"),
    ("class.city_agg.p50_ms", "ms"),
    ("class.star_hist.p50_ms", "ms"),
    ("class.top_fans.p50_ms", "ms"),
    ("class.useful_count.p50_ms", "ms"),
    ("class.biz_review_join.p50_ms", "ms"),
    ("bench.op_p50_ms", "ms"),
    ("bench.op_tail_ms", "ms"),
    ("bench.error_rate", "ratio"),
    ("check.accounting_violations", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IngestTwitter,
    IngestHn,
    ServeRead,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::IngestTwitter,
        Workload::IngestHn,
        Workload::ServeRead,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestTwitter => "ingest-twitter",
            Workload::IngestHn => "ingest-hn",
            Workload::ServeRead => "serve-read",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag.as_str(), value.as_str());
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let name = get("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
    })
}

/// Monotonic nanoseconds since the run started; span and sample times
/// share this epoch.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Named metric values; names come from [`END_TO_END`] and [`PER_LAYER`].
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name);
        assert!(known, "metric {name} is not declared");
        self.0.insert(name, value);
    }
}

/// What a workload reports back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Run description fields (input sizes, policies).
    pub info: Vec<(&'static str, String)>,
    /// Traced run only: the span log, written out when the run ends.
    pub spans: Option<spans::Spans>,
}

/// Process high-water resident memory in MB, from `/proc/self/status`.
/// Workloads read it when their window ends, before any later set-ups.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Directory for relation files and the span log, inside the working
/// directory.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// The commit the checkout was made from, read from `.git` when present.
fn git_rev() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&Path::new(".git").join(reference))
        .or_else(|| {
            read(Path::new(".git/packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l.split(' ').next().unwrap_or("").to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The workload's "why" sentence from `BENCHMARK.json`.
fn why(workload: Workload) -> String {
    let text = std::fs::read_to_string("BENCHMARK.json").unwrap_or_default();
    jt_json::parse(&text)
        .ok()
        .and_then(|doc| {
            doc.get("workloads")?
                .as_array()?
                .iter()
                .find(|w| w.get("name").and_then(|n| n.as_str()) == Some(workload.name()))?
                .get("why")?
                .as_str()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    jt_json::write_escaped_str(&mut out, s);
    out
}

/// The result line: `correct`, `attempted`, `failed`, and the metrics of
/// `declared`, in declaration order.
fn result_line(correct: bool, o: &Outcome, declared: &[(&str, &str)]) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, unit) in declared {
        let v = o.metrics.0.get(name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        fields.push(format!(
            "{}: {{\"value\": {v}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted.max(1),
        o.failed,
        fields.join(", ")
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let dir = scratch_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let clock = Clock(Instant::now());
    let result = match args.workload {
        Workload::IngestTwitter | Workload::IngestHn => ingest::run(&args, clock),
        Workload::ServeRead | Workload::ServeMixed => serve::run(&args, clock),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.metrics.put("bench.error_rate", error_rate);

    let mut spans_file = String::new();
    if let Some(spans) = &outcome.spans {
        let path = dir.join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = std::fs::write(&path, spans.to_jsonl()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        spans_file = path.display().to_string();
        let mut by_self: Vec<(String, u64)> = spans.self_time_by_name().into_iter().collect();
        by_self.sort_by_key(|s| std::cmp::Reverse(s.1));
        eprintln!("self time by span (ms):");
        for (name, ns) in by_self {
            eprintln!("  {name:<34} {:>12.3}", ns as f64 / 1e6);
        }
    }

    let exec_threads = jt_query::ExecOptions::default().threads;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut info = vec![
        ("workload", json_str(args.workload.name())),
        ("why", json_str(&why(args.workload))),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("load_threads", LOAD_THREADS.to_string()),
        ("exec_threads", exec_threads.to_string()),
        ("git_rev", json_str(&git_rev())),
        ("spans_file", json_str(&spans_file)),
    ];
    info.extend(outcome.info.iter().map(|(k, v)| (*k, v.clone())));
    let info: Vec<String> = info
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"run\": {{{}}}}}", info.join(", "));

    let checks_ok = outcome
        .metrics
        .0
        .get("check.accounting_violations")
        .is_none_or(|&v| v == 0.0);
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in declared {
        let v = outcome.metrics.0.get(name).copied().unwrap_or(0.0);
        eprintln!("  {name:<36} {v:>14.4} {unit}");
    }
    match result_line(checks_ok, &outcome, declared) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "serve-mixed",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Workload::ServeMixed);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse_args(&strings(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "serve-read",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ]))
        .is_err());
    }

    /// `BENCHMARK.json` declares exactly the metrics this program prints,
    /// with the same units, and names every workload.
    #[test]
    fn benchmark_json_matches_declared_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = jt_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).unwrap().as_str().unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let names: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn result_line_is_json_with_every_declared_metric() {
        let mut o = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        o.metrics.put("setup_s", 0.25);
        let line = result_line(true, &o, END_TO_END).unwrap();
        let doc = jt_json::parse(&line).unwrap();
        assert_eq!(doc.get("attempted").unwrap().as_i64(), Some(10));
        let m = doc.get("metrics").unwrap();
        assert_eq!(m.as_object().unwrap().len(), END_TO_END.len());
        assert_eq!(
            m.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(0.25)
        );
        o.metrics.put("op_p90_ms", f64::NAN);
        assert!(result_line(true, &o, END_TO_END).is_err());
    }
}
