//! `ingest-twitter` and `ingest-hn`: NDJSON bytes to a persisted relation,
//! repeatedly, through `Relation::try_load_ondemand` and `Relation::save`.

use crate::spans::Spans;
use crate::stats::{mean, median, percentile, sorted, tail};
use crate::{canon, Args, Clock, Outcome, Workload, LOAD_THREADS};
use jt_core::{IngestReport, LoadMetrics, Relation, TilesConfig};
use jt_json::Value;
use std::path::Path;
use std::time::Instant;

/// Evolving Twitter documents: one reordering partition.
const TWITTER_DOCS: usize = 8_000;
/// HackerNews items: ten reordering partitions, four shapes.
const HN_ITEMS: usize = 80_000;
/// Set-up time kept as this share of loading time: between loads the
/// input is generated again until the set-ups add up to it, and `setup_s`
/// is their median. One set-up takes 25–100 ms while the host's speed
/// moves in episodes of several seconds, so set-ups timed in one block
/// are often all slow or all fast; spread over the window, they see the
/// same host as the loads.
const SETUP_SHARE: f64 = 0.15;

fn generate(workload: Workload, seed: u64) -> Vec<Value> {
    match workload {
        Workload::IngestTwitter => {
            jt_data::twitter::generate(jt_data::twitter::TwitterConfig {
                docs: TWITTER_DOCS,
                evolving: true,
                seed,
                ..jt_data::twitter::TwitterConfig::default()
            })
            .docs
        }
        Workload::IngestHn => jt_data::hackernews::generate(jt_data::hackernews::HnConfig {
            items: HN_ITEMS,
            seed,
        }),
        _ => unreachable!("not an ingestion workload"),
    }
}

/// One load-then-save of the whole input.
pub struct LoadSample {
    pub start_ns: u64,
    pub load_ns: u64,
    pub save_ns: u64,
    pub report: IngestReport,
    pub metrics: LoadMetrics,
    pub stored_bytes: u64,
}

impl LoadSample {
    pub fn wall_ns(&self) -> u64 {
        self.load_ns + self.save_ns
    }
}

/// Load `ndjson` with the default tile configuration and save it to
/// `path`, timing both calls from outside.
pub fn load_and_save(
    clock: Clock,
    ndjson: &[u8],
    path: &Path,
) -> Result<(Relation, LoadSample), String> {
    let start_ns = clock.ns();
    let t = Instant::now();
    let (mut rel, report) =
        Relation::try_load_ondemand(ndjson, TilesConfig::default(), LOAD_THREADS)
            .map_err(|e| format!("load failed: {e}"))?;
    let load_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    rel.save(path).map_err(|e| format!("save failed: {e}"))?;
    let save_ns = t.elapsed().as_nanos() as u64;
    let stored_bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    let metrics = rel.metrics().clone();
    Ok((
        rel,
        LoadSample {
            start_ns,
            load_ns,
            save_ns,
            report,
            metrics,
            stored_bytes,
        },
    ))
}

/// The ingestion answer gate: no line skipped, and the saved file reopens
/// to exactly the generated documents (as a multiset of key-sorted
/// canonical JSON).
pub fn gate(clock: Clock, docs: &[Value], ndjson: &[u8], path: &Path) -> Result<(), String> {
    let (_, sample) = load_and_save(clock, ndjson, path)?;
    if sample.report.skipped != 0 || sample.report.docs != docs.len() {
        return Err(format!(
            "gate: {} of {} lines skipped ({} indexed)",
            sample.report.skipped,
            docs.len(),
            sample.report.docs
        ));
    }
    let reopened = Relation::open(path).map_err(|e| format!("gate: reopen failed: {e}"))?;
    let rows: Vec<Value> = (0..reopened.row_count()).map(|r| reopened.doc(r)).collect();
    canon::same_multiset(docs, &rows).map_err(|e| format!("gate: {e}"))
}

/// One set-up: generate the documents and their NDJSON text, timed.
fn set_up(workload: Workload, seed: u64) -> (Vec<Value>, String, f64) {
    let t = Instant::now();
    let docs = generate(workload, seed);
    let ndjson = jt_data::to_ndjson(&docs);
    (docs, ndjson, t.elapsed().as_secs_f64())
}

/// Load and save until `seconds` have been spent loading and saving (at
/// least once); returns the samples and that time. Between loads, set up
/// again until the set-up times in `setup` reach [`SETUP_SHARE`] of it,
/// checking that the same seed gave the same input.
fn measure(
    args: &Args,
    clock: Clock,
    ndjson: &str,
    path: &Path,
    setup: &mut Vec<f64>,
) -> Result<(Vec<LoadSample>, f64), String> {
    let mut samples = Vec::new();
    let mut busy = 0.0;
    let mut setup_total: f64 = setup.iter().sum();
    while samples.is_empty() || busy < args.seconds {
        let t = Instant::now();
        samples.push(load_and_save(clock, ndjson.as_bytes(), path)?.1);
        busy += t.elapsed().as_secs_f64();
        while setup_total < SETUP_SHARE * busy {
            let (_, again, secs) = set_up(args.workload, args.seed);
            if again != ndjson {
                return Err(format!("seed {} generated different inputs", args.seed));
            }
            setup.push(secs);
            setup_total += secs;
        }
    }
    Ok((samples, busy))
}

/// Record one span tree per load and save: `ingest` over `core.load`
/// (tape, shape and materialize phases laid end to end from the call's
/// start) and `core.save`. Returns the number of loads whose phases sum
/// to more than the load's wall time.
pub fn record_spans(spans: &mut Spans, samples: &[LoadSample], first_request: u64) -> u64 {
    let mut violations = 0;
    for (i, s) in samples.iter().enumerate() {
        let request = first_request + i as u64;
        let root = spans.push(
            "ingest",
            s.start_ns,
            s.start_ns + s.wall_ns(),
            None,
            request,
        );
        let load = spans.push(
            "core.load",
            s.start_ns,
            s.start_ns + s.load_ns,
            Some(root),
            request,
        );
        let phases = [
            ("json.tape", s.report.index.as_nanos() as u64),
            ("core.shape", s.report.shape.as_nanos() as u64),
            ("core.materialize", s.report.materialize.as_nanos() as u64),
        ];
        if phases.iter().map(|p| p.1).sum::<u64>() > s.load_ns {
            violations += 1;
        }
        spans.push_sequence(load, s.start_ns, &phases);
        let save_start = s.start_ns + s.load_ns;
        spans.push(
            "core.save",
            save_start,
            save_start + s.save_ns,
            Some(root),
            request,
        );
    }
    violations
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(args: &Args, clock: Clock) -> Result<Outcome, String> {
    let (docs, ndjson, secs) = set_up(args.workload, args.seed);
    let mut setup = vec![secs];
    let path = crate::scratch_dir().join(format!(
        "{}-{}.jt",
        args.workload.name(),
        std::process::id()
    ));
    let result = gate_and_measure(args, clock, docs, &ndjson, &path, &mut setup);
    let _ = std::fs::remove_file(&path);
    let mut o = result?;
    o.info.push(("setups", setup.len().to_string()));
    o.metrics.put("setup_s", median(&sorted(setup)));
    Ok(o)
}

fn gate_and_measure(
    args: &Args,
    clock: Clock,
    docs: Vec<Value>,
    ndjson: &str,
    path: &Path,
    setup: &mut Vec<f64>,
) -> Result<Outcome, String> {
    gate(clock, &docs, ndjson.as_bytes(), path)?;
    drop(docs);

    let mb = ndjson.len() as f64 / 1e6;
    let (samples, loading_s) = measure(args, clock, ndjson, path, setup)?;
    let peak_rss = crate::peak_rss_mb();
    let mut o = Outcome {
        attempted: samples.len() as u64,
        info: vec![
            ("input_docs", ndjson.lines().count().to_string()),
            ("input_bytes", ndjson.len().to_string()),
            ("flush_policy", "\"none (bulk load then save)\"".into()),
            ("server_workers", "0".into()),
            ("op_samples", samples.len().to_string()),
        ],
        ..Outcome::default()
    };
    let walls = sorted(samples.iter().map(|s| s.wall_ns() as f64 / 1e6).collect());
    let p50 = median(&walls);
    let (tail_ms, tail_p) = tail(&walls);
    o.info.push(("op_tail_percentile", tail_p.to_string()));
    let m = &mut o.metrics;
    m.put("bench.op_p50_ms", p50);
    m.put("op_p90_ms", percentile(&walls, 90.0));
    m.put("bench.op_tail_ms", tail_ms);
    m.put("ops_per_s", samples.len() as f64 / loading_s);
    m.put("peak_rss_mb", peak_rss);
    m.put("ingest_mb_s", mb / (p50 / 1e3));
    m.put(
        "stored_bytes_per_input_byte",
        samples[0].stored_bytes as f64 / ndjson.len() as f64,
    );
    eprintln!(
        "{}: {} loads of {mb:.2} MB, p50 {p50:.1} ms, tail {tail_ms:.1} ms (p{tail_p})",
        args.workload.name(),
        walls.len(),
    );
    if !args.trace {
        return Ok(o);
    }

    // Tracing adds no work to the window: the spans are built from its
    // samples afterwards, and that building is the tracing overhead.
    let t = Instant::now();
    let mut spans = Spans::default();
    let violations = record_spans(&mut spans, &samples, 1);
    let self_times = spans.self_times_ns();
    let unattributed: Vec<f64> = spans
        .spans
        .iter()
        .zip(&self_times)
        .filter(|(s, _)| s.name == "core.load")
        .map(|(_, &t)| t as f64 / 1e6)
        .collect();
    let overhead_ms = t.elapsed().as_secs_f64() * 1e3;
    let avg = |f: &dyn Fn(&LoadSample) -> f64| mean(&samples.iter().map(f).collect::<Vec<_>>());
    let busy = |s: &LoadSample| {
        let m = &s.metrics;
        ms(m.mining + m.reorder + m.extract + m.write_jsonb)
    };
    let m = &mut o.metrics;
    m.put("json.tape_ms", avg(&|s| ms(s.report.index)));
    m.put("core.shape_ms", avg(&|s| ms(s.report.shape)));
    m.put(
        "core.distinct_shapes",
        avg(&|s| s.report.distinct_shapes as f64),
    );
    m.put(
        "core.shape_dedup_ratio",
        avg(&|s| 1.0 - s.report.distinct_shapes as f64 / s.report.docs.max(1) as f64),
    );
    m.put("mining.mine_busy_ms", avg(&|s| ms(s.metrics.mining)));
    m.put("core.reorder_busy_ms", avg(&|s| ms(s.metrics.reorder)));
    m.put(
        "core.reorder_share",
        avg(&|s| ms(s.metrics.reorder) / busy(s).max(1e-9)),
    );
    m.put("core.partitions", avg(&|s| s.metrics.partitions as f64));
    m.put("core.extract_busy_ms", avg(&|s| ms(s.metrics.extract)));
    m.put("jsonb.encode_busy_ms", avg(&|s| ms(s.metrics.write_jsonb)));
    m.put("core.materialize_ms", avg(&|s| ms(s.report.materialize)));
    m.put("core.load_wall_ms", avg(&|s| s.load_ns as f64 / 1e6));
    m.put("core.save_ms", avg(&|s| s.save_ns as f64 / 1e6));
    m.put("core.unattributed_ms", mean(&unattributed));
    m.put("check.accounting_violations", violations as f64);
    m.put("trace.spans", spans.spans.len() as f64);
    m.put("trace.overhead_ms", overhead_ms);
    m.put("trace.overhead_share", overhead_ms / (loading_s * 1e3));
    o.spans = Some(spans);
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample(start_ns: u64, load_ns: u64, phases_ms: [u64; 3]) -> LoadSample {
        LoadSample {
            start_ns,
            load_ns,
            save_ns: 1_000_000,
            report: IngestReport {
                index: Duration::from_millis(phases_ms[0]),
                shape: Duration::from_millis(phases_ms[1]),
                materialize: Duration::from_millis(phases_ms[2]),
                ..IngestReport::default()
            },
            metrics: LoadMetrics::default(),
            stored_bytes: 0,
        }
    }

    #[test]
    fn load_spans_leave_the_unattributed_rest_as_self_time() {
        let mut spans = Spans::default();
        let v = record_spans(&mut spans, &[sample(0, 10_000_000, [1, 2, 3])], 1);
        assert_eq!(v, 0);
        let st = spans.self_time_by_name();
        assert_eq!(st["core.load"], 4_000_000);
        assert_eq!(st["ingest"], 0);
        assert_eq!(st["core.save"], 1_000_000);
        assert_eq!(spans.spans.len(), 6);
    }

    #[test]
    fn phases_longer_than_the_load_are_an_accounting_violation() {
        let mut spans = Spans::default();
        let v = record_spans(&mut spans, &[sample(0, 5_000_000, [1, 2, 3])], 1);
        assert_eq!(v, 1);
    }

    #[test]
    fn gate_accepts_a_round_trip_and_rejects_a_corrupted_expectation() {
        let docs: Vec<Value> = (0..300)
            .map(|i| {
                jt_json::parse(&format!(
                    r#"{{"id":{i},"tag":"t{}","n":{{"x":{i}}}}}"#,
                    i % 7
                ))
                .unwrap()
            })
            .collect();
        let ndjson = jt_data::to_ndjson(&docs);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench")
            .join(format!("test-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gate.jt");
        let clock = Clock(Instant::now());
        assert_eq!(gate(clock, &docs, ndjson.as_bytes(), &path), Ok(()));
        let mut wrong = docs.clone();
        wrong[17] = jt_json::parse(r#"{"id":17,"tag":"t3","n":{"x":-1}}"#).unwrap();
        assert!(gate(clock, &wrong, ndjson.as_bytes(), &path).is_err());
        let bad_line = format!("{ndjson}{{not json\n");
        assert!(gate(clock, &docs, bad_line.as_bytes(), &path)
            .unwrap_err()
            .contains("skipped"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
