//! `serve-read` and `serve-mixed`: SQL over loopback TCP against
//! `jt_server::Server`, with closed-loop readers and, on `serve-mixed`, an
//! open-loop appender that flushes on a fixed count.

use crate::pace::Pacer;
use crate::spans::{parse_profile, OpTimes, Spans};
use crate::stats::{mean, median, percentile, sorted, tail};
use crate::{ingest, Args, Clock, Outcome, Workload, LOAD_THREADS};
use jt_core::{Relation, StorageMode, TilesConfig};
use jt_server::{QueryTrace, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Yelp businesses; reviews, users, check-ins and tips derive from it
/// (38,000 documents in all).
const BUSINESSES: usize = 2_000;
/// Query-executing server workers.
const SERVER_WORKERS: usize = 2;
/// Retained query traces: more than a traced run issues.
const LOG_CAPACITY: usize = 1 << 16;
/// Set-ups per run, half before the window and half after it; `setup_s`
/// and the set-up part of `ingest_mb_s` are their medians. Spread over the
/// run, they are not all caught by one slow episode of the host.
const SETUP_REPS: usize = 6;
/// `serve-mixed` appends per second and appends per `.flush`. Each flush
/// publishes a generation (`Relation::with_appended` copies every tile and
/// rebuilds statistics, 10–12 ms here), so 20 publishes a second keep
/// about a quarter of one core publishing beside the reader.
const APPEND_RATE: f64 = 400.0;
const FLUSH_EVERY: u64 = 20;
/// A request unanswered this long counts as timed out and ends the run.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// The fixed SQL mix, one query per class, sent round-robin: the class,
/// its per-layer latency metric, and its SQL.
pub const CLASSES: [(&str, &str, &str); 5] = [
    (
        "city_agg",
        "class.city_agg.p50_ms",
        "SELECT data->>'city', COUNT(data->>'business_id'), SUM(data->>'review_count'::INT) \
         FROM t WHERE data->>'city' IS NOT NULL GROUP BY 1 ORDER BY 1",
    ),
    (
        "star_hist",
        "class.star_hist.p50_ms",
        "SELECT data->>'stars'::INT, COUNT(data->>'review_id') FROM t \
         WHERE data->>'review_id' IS NOT NULL GROUP BY 1 ORDER BY 1",
    ),
    (
        "top_fans",
        "class.top_fans.p50_ms",
        "SELECT data->>'user_id', data->>'fans'::INT FROM t \
         WHERE data->>'fans'::INT > 0 ORDER BY 2 DESC, 1 LIMIT 10",
    ),
    (
        "useful_count",
        "class.useful_count.p50_ms",
        "SELECT COUNT(data->>'useful'::INT) FROM t WHERE data->>'useful'::INT > 25",
    ),
    (
        "biz_review_join",
        "class.biz_review_join.p50_ms",
        "SELECT b.data->>'state', COUNT(r.data->>'review_id') FROM t b, t r \
         WHERE b.data->>'business_id' = r.data->>'business_id' \
         AND b.data->>'city' IS NOT NULL AND r.data->>'review_id' IS NOT NULL \
         GROUP BY 1 ORDER BY 1",
    ),
];

/// Every Yelp document type carries one of these two keys.
const COUNT_ALL: &str = "SELECT COUNT(*) FROM t \
                         WHERE data->>'business_id' IS NOT NULL OR data->>'user_id' IS NOT NULL";

/// A line-protocol client on its own connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// This end's address, as the server records it in `QueryTrace.client`.
    pub local: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(CLIENT_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let local = s.local_addr().map_err(|e| e.to_string())?.to_string();
        let writer = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(s),
            writer,
            local,
        })
    }

    /// Send one request line and read the whole response: the payload
    /// lines of an `ok`, or the message of an `err`. The outer error is a
    /// transport failure or timeout.
    pub fn request(&mut self, line: &str) -> Result<Result<Vec<String>, String>, String> {
        let mut msg = String::with_capacity(line.len() + 1);
        msg.push_str(line);
        msg.push('\n');
        self.writer
            .write_all(msg.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut header = String::new();
        self.read_line(&mut header)?;
        let header = header.trim_end();
        if let Some(e) = header.strip_prefix("err ") {
            return Ok(Err(e.to_string()));
        }
        let n: usize = header
            .strip_prefix("ok ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("bad response header {header:?}"))?;
        let mut lines = Vec::with_capacity(n);
        for _ in 0..n {
            let mut l = String::new();
            self.read_line(&mut l)?;
            lines.push(l.trim_end_matches('\n').to_string());
        }
        Ok(Ok(lines))
    }

    fn read_line(&mut self, buf: &mut String) -> Result<(), String> {
        match self.reader.read_line(buf) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// A request whose answer was required to succeed.
fn expect_ok(client: &mut Client, line: &str) -> Result<Vec<String>, String> {
    client
        .request(line)?
        .map_err(|e| format!("{line:.60}: err {e}"))
}

/// Rows and pending rows from `.generation t`.
fn generation(client: &mut Client) -> Result<(u64, u64), String> {
    let lines = expect_ok(client, ".generation t")?;
    let words: Vec<&str> = lines.first().map_or(vec![], |l| l.split(' ').collect());
    let field = |k: &str| -> Option<u64> {
        let i = words.iter().position(|w| *w == k)?;
        words.get(i + 1)?.parse().ok()
    };
    match (field("rows"), field("pending")) {
        (Some(r), Some(p)) => Ok((r, p)),
        _ => Err(format!("bad .generation reply {lines:?}")),
    }
}

fn count_all(client: &mut Client) -> Result<u64, String> {
    let lines = expect_ok(client, COUNT_ALL)?;
    lines
        .first()
        .and_then(|l| l.trim().parse().ok())
        .ok_or_else(|| format!("bad COUNT reply {lines:?}"))
}

struct Setup {
    server: Server,
    ndjson: String,
    /// `.append` payloads for `serve-mixed`.
    appends: Vec<String>,
    rows: u64,
    load_save_s: f64,
    stored_bytes: u64,
}

/// Generate the collection (and the documents to append), load and save
/// it, reopen the file, and start the server on it.
fn set_up(args: &Args, clock: Clock, appends: usize) -> Result<Setup, String> {
    let docs = jt_data::yelp::generate(jt_data::yelp::YelpConfig {
        businesses: BUSINESSES,
        seed: args.seed,
    })
    .docs;
    let ndjson = jt_data::to_ndjson(&docs);
    drop(docs);
    let appends = if appends == 0 {
        Vec::new()
    } else {
        jt_data::yelp::generate(jt_data::yelp::YelpConfig {
            businesses: appends / 12 + 1,
            seed: args.seed ^ 0x5EED_A99E_4D00,
        })
        .docs
        .iter()
        .filter(|d| d.get("review_id").is_some())
        .take(appends)
        .map(|d| format!(".append t {}", jt_json::to_string(d)))
        .collect()
    };
    let path = crate::scratch_dir().join(format!(
        "{}-{}.jt",
        args.workload.name(),
        std::process::id()
    ));
    let loaded = ingest::load_and_save(clock, ndjson.as_bytes(), &path);
    let rel = loaded.and_then(|(_, s)| {
        let rel = Relation::open(&path).map_err(|e| format!("reopen: {e}"))?;
        Ok((rel, s))
    });
    let _ = std::fs::remove_file(&path);
    let (rel, sample) = rel?;
    let rows = rel.row_count() as u64;
    let config = ServerConfig {
        workers: SERVER_WORKERS,
        log_capacity: LOG_CAPACITY,
        ..ServerConfig::default()
    };
    let server = Server::start([("t".to_string(), rel)], config)
        .map_err(|e| format!("server start: {e}"))?;
    Ok(Setup {
        server,
        ndjson,
        appends,
        rows,
        load_save_s: sample.wall_ns() as f64 / 1e9,
        stored_bytes: sample.stored_bytes,
    })
}

/// The query answer gate: each class's answer over the socket equals
/// `jt_sql::query` on an in-process JSONB-mode load of the same bytes.
fn gate(client: &mut Client, ndjson: &[u8], rows: u64) -> Result<(), String> {
    let (oracle, _) = Relation::try_load_ondemand(
        ndjson,
        TilesConfig::with_mode(StorageMode::Jsonb),
        LOAD_THREADS,
    )
    .map_err(|e| format!("oracle load: {e}"))?;
    for (class, _, sql) in CLASSES {
        let expected = jt_sql::query(sql, &[("t", &oracle)])
            .map_err(|e| format!("oracle {class}: {e}"))?
            .to_lines();
        let got = expect_ok(client, sql)?;
        compare_answers(class, &expected, &got)?;
    }
    let (served, pending) = generation(client)?;
    let counted = count_all(client)?;
    if served != rows || pending != 0 || counted != rows {
        return Err(format!(
            "gate: server reports {served} rows (+{pending} pending) and COUNT {counted}, loaded {rows}"
        ));
    }
    Ok(())
}

/// Exact, ordered equality of two answers' rendered rows.
pub fn compare_answers(class: &str, expected: &[String], got: &[String]) -> Result<(), String> {
    if expected.is_empty() {
        return Err(format!("gate {class}: the oracle answer is empty"));
    }
    if expected == got {
        return Ok(());
    }
    let at = expected
        .iter()
        .zip(got)
        .position(|(e, g)| e != g)
        .unwrap_or(expected.len().min(got.len()));
    Err(format!(
        "gate {class}: answer differs at row {at} ({} vs {} rows): expected {:?}, got {:?}",
        expected.len(),
        got.len(),
        expected.get(at),
        got.get(at)
    ))
}

#[derive(Debug, Clone)]
pub struct QuerySample {
    pub class: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
}

#[derive(Debug, Clone)]
struct AppendSample {
    due_ns: u64,
    sent_ns: u64,
    late_ns: u64,
    end_ns: u64,
    ok: bool,
}

#[derive(Debug, Clone)]
struct FlushSample {
    start_ns: u64,
    end_ns: u64,
    ok: bool,
}

/// Everything one measurement window observed.
#[derive(Default)]
struct Window {
    /// Per reader connection: its address and its queries in order.
    readers: Vec<(String, Vec<QuerySample>)>,
    appends: Vec<AppendSample>,
    flushes: Vec<FlushSample>,
    elapsed_s: f64,
}

impl Window {
    fn queries(&self) -> impl Iterator<Item = &QuerySample> {
        self.readers.iter().flat_map(|(_, q)| q)
    }

    fn attempted(&self) -> u64 {
        (self.queries().count() + self.appends.len() + self.flushes.len()) as u64
    }

    fn failed(&self) -> u64 {
        (self.queries().filter(|q| !q.ok).count()
            + self.appends.iter().filter(|a| !a.ok).count()
            + self.flushes.iter().filter(|f| !f.ok).count()) as u64
    }

    fn latencies_ms(&self) -> Vec<f64> {
        sorted(
            self.queries()
                .map(|q| (q.end_ns - q.start_ns) as f64 / 1e6)
                .collect(),
        )
    }
}

fn reader(
    addr: SocketAddr,
    clock: Clock,
    first_class: usize,
    end_ns: u64,
) -> Result<(String, Vec<QuerySample>), String> {
    let mut client = Client::connect(addr)?;
    let mut samples = Vec::new();
    let mut class = first_class;
    while clock.ns() < end_ns {
        let start_ns = clock.ns();
        let ok = client.request(CLASSES[class].2)?.is_ok();
        samples.push(QuerySample {
            class,
            start_ns,
            end_ns: clock.ns(),
            ok,
        });
        class = (class + 1) % CLASSES.len();
    }
    Ok((client.local, samples))
}

/// Send `appends` on the pacer's schedule, flushing after every
/// [`FLUSH_EVERY`]; latency counts from when each append was due.
fn writer(
    addr: SocketAddr,
    clock: Clock,
    appends: &[String],
) -> Result<(Vec<AppendSample>, Vec<FlushSample>), String> {
    let mut client = Client::connect(addr)?;
    let pacer = Pacer::new(clock.ns(), APPEND_RATE);
    let mut out = Vec::with_capacity(appends.len());
    let mut flushes = Vec::new();
    for (k, line) in appends.iter().enumerate() {
        let k = k as u64;
        std::thread::sleep(Duration::from_nanos(pacer.wait_ns(k, clock.ns())));
        let sent_ns = clock.ns();
        let ok = client.request(line)?.is_ok();
        out.push(AppendSample {
            due_ns: pacer.due_ns(k),
            sent_ns,
            late_ns: pacer.late_ns(k, sent_ns),
            end_ns: clock.ns(),
            ok,
        });
        if (k + 1).is_multiple_of(FLUSH_EVERY) {
            let start_ns = clock.ns();
            let ok = client.request(".flush t")?.is_ok();
            flushes.push(FlushSample {
                start_ns,
                end_ns: clock.ns(),
                ok,
            });
        }
    }
    Ok((out, flushes))
}

/// One measurement window: `readers` closed-loop query clients for
/// `seconds`, plus the paced writer when `appends` is non-empty.
fn window(
    addr: SocketAddr,
    clock: Clock,
    readers: usize,
    seconds: f64,
    appends: &[String],
) -> Result<Window, String> {
    let start = clock.ns();
    let end_ns = start + (seconds * 1e9) as u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|i| scope.spawn(move || reader(addr, clock, i * 2 % CLASSES.len(), end_ns)))
            .collect();
        let writes =
            (!appends.is_empty()).then(|| scope.spawn(move || writer(addr, clock, appends)));
        let mut w = Window::default();
        for h in handles {
            w.readers
                .push(h.join().map_err(|_| "reader panicked".to_string())??);
        }
        w.elapsed_s = (clock.ns() - start) as f64 / 1e9;
        if let Some(h) = writes {
            (w.appends, w.flushes) = h.join().map_err(|_| "writer panicked".to_string())??;
        }
        Ok(w)
    })
}

/// Server traces of one window's queries, matched to the client samples:
/// per connection, the k-th trace with that client address belongs to the
/// k-th request.
fn match_traces<'a>(
    w: &'a Window,
    traces: &'a [Arc<QueryTrace>],
) -> Result<Vec<(&'a QuerySample, &'a QueryTrace)>, String> {
    let mut out = Vec::new();
    for (addr, samples) in &w.readers {
        let mine: Vec<&QueryTrace> = traces
            .iter()
            .filter(|t| &t.client == addr)
            .map(|t| t.as_ref())
            .collect();
        if mine.len() != samples.len() {
            return Err(format!(
                "{addr}: {} requests but {} server traces",
                samples.len(),
                mine.len()
            ));
        }
        out.extend(samples.iter().zip(mine));
    }
    Ok(out)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Span tree of one query: the client's request, the server's admitted
/// request ending when the client read the last line, its four phases end
/// to end, the planner passes inside `query.plan` and the profiled
/// operators (clipped) inside `query.execute`.
pub fn record_query(
    spans: &mut Spans,
    request: u64,
    q: &QuerySample,
    t: &QueryTrace,
    ops: &OpTimes,
) {
    let root = spans.push("sql.request", q.start_ns, q.end_ns, None, request);
    let server_start = q.end_ns.saturating_sub(ns(t.total)).max(q.start_ns);
    let server = spans.push(
        "server.request",
        server_start,
        q.end_ns,
        Some(root),
        request,
    );
    let phases = spans.push_sequence(
        server,
        server_start,
        &[
            ("server.queue_wait", ns(t.queue_wait)),
            ("query.plan", ns(t.plan)),
            ("query.execute", ns(t.execute)),
            ("server.respond", ns(t.respond)),
        ],
    );
    let passes: Vec<(String, u64)> = t
        .passes
        .iter()
        .map(|(p, d)| (format!("query.pass.{p}"), ns(*d)))
        .collect();
    let passes: Vec<(&str, u64)> = passes.iter().map(|(p, d)| (p.as_str(), *d)).collect();
    spans.push_sequence(phases[1], spans.spans[phases[1]].start_ns, &passes);
    let (exec_start, exec_ns) = {
        let e = &spans.spans[phases[2]];
        (e.start_ns, e.duration_ns())
    };
    let mut left = exec_ns;
    let clipped: Vec<(&str, u64)> = ops
        .ops
        .iter()
        .map(|(name, d)| {
            let d = (*d).min(left);
            left -= d;
            (name.as_str(), d)
        })
        .collect();
    spans.push_sequence(phases[2], exec_start, &clipped);
}

/// Whether a query's accounting holds: the client's latency covers the
/// server's total up to the response write, and the total covers the sum
/// of the four phases. The server stamps `respond` and `total` after its
/// write returns, and the client may finish reading before that, so the
/// client is only required to cover `total - respond`.
pub fn accounting_ok(q: &QuerySample, t: &QueryTrace) -> bool {
    let client = q.end_ns - q.start_ns;
    client + ns(t.respond) >= ns(t.total) && t.total >= t.phase_sum()
}

/// Per-layer metrics of a traced window.
fn layer_metrics(
    o: &mut Outcome,
    w: &Window,
    matched: &[(&QuerySample, &QueryTrace)],
    spans: &mut Spans,
    rows_end: u64,
) -> Result<(), String> {
    let mut violations = 0u64;
    let mut ops = Vec::with_capacity(matched.len());
    for (i, (q, t)) in matched.iter().enumerate() {
        let op = match &t.profile_json {
            Some(j) => parse_profile(j)?,
            None => OpTimes::default(),
        };
        record_query(spans, i as u64 + 1, q, t, &op);
        violations += u64::from(!accounting_ok(q, t));
        ops.push(op);
    }
    let first = matched.len() as u64 + 1;
    for (k, a) in w.appends.iter().enumerate() {
        spans.push("server.append", a.sent_ns, a.end_ns, None, first + k as u64);
    }
    let first = first + w.appends.len() as u64;
    for (k, f) in w.flushes.iter().enumerate() {
        spans.push("server.flush", f.start_ns, f.end_ns, None, first + k as u64);
    }

    let traces: Vec<&QueryTrace> = matched.iter().map(|m| m.1).collect();
    let avg_t =
        |f: &dyn Fn(&QueryTrace) -> f64| mean(&traces.iter().map(|t| f(t)).collect::<Vec<_>>());
    let avg_op = |f: &dyn Fn(&OpTimes) -> u64| {
        mean(&ops.iter().map(|o| f(o) as f64 / 1e6).collect::<Vec<_>>())
    };
    let sum_op = |f: &dyn Fn(&OpTimes) -> u64| ops.iter().map(f).sum::<u64>() as f64;
    let self_times = spans.self_times_ns();
    let gaps: Vec<f64> = spans
        .spans
        .iter()
        .zip(&self_times)
        .filter(|(s, _)| s.name == "sql.request")
        .map(|(_, &t)| t as f64 / 1e6)
        .collect();
    let queue = sorted(traces.iter().map(|t| ms(t.queue_wait)).collect());
    let appends = sorted(
        w.appends
            .iter()
            .map(|a| (a.end_ns - a.due_ns) as f64 / 1e6)
            .collect(),
    );
    let flushes = sorted(
        w.flushes
            .iter()
            .map(|f| (f.end_ns - f.start_ns) as f64 / 1e6)
            .collect(),
    );
    let late: Vec<f64> = w.appends.iter().map(|a| a.late_ns as f64 / 1e6).collect();

    let m = &mut o.metrics;
    m.put("query.plan_ms", avg_t(&|t| ms(t.plan)));
    for (metric, pass) in [
        ("query.pass.predicate-pushdown_us", "predicate-pushdown"),
        ("query.pass.projection-pushdown_us", "projection-pushdown"),
        ("query.pass.join-reorder_us", "join-reorder"),
        ("query.pass.bound-propagation_us", "bound-propagation"),
    ] {
        let per_query = |t: &QueryTrace| -> f64 {
            t.passes
                .iter()
                .filter(|p| p.0 == pass)
                .map(|p| p.1.as_secs_f64() * 1e6)
                .sum()
        };
        m.put(metric, avg_t(&per_query));
    }
    m.put("query.scan_ms", avg_op(&|o| o.scan_ns));
    m.put(
        "query.tiles_skipped_ratio",
        sum_op(&|o| o.tiles_skipped) / sum_op(&|o| o.tiles_total).max(1.0),
    );
    m.put(
        "query.rows_scanned_per_row_out",
        sum_op(&|o| o.rows_scanned) / sum_op(&|o| o.rows_out).max(1.0),
    );
    m.put("query.join_build_ms", avg_op(&|o| o.join_build_ns));
    m.put("query.join_probe_ms", avg_op(&|o| o.join_probe_ns));
    m.put("query.agg_ms", avg_op(&|o| o.agg_ns));
    m.put("query.sort_ms", avg_op(&|o| o.sort_ns));
    m.put("server.queue_wait_p50_ms", median(&queue));
    m.put("server.queue_wait_p99_ms", tail(&queue).0);
    m.put("server.exec_ms", avg_t(&|t| ms(t.execute)));
    m.put("server.respond_ms", avg_t(&|t| ms(t.respond)));
    m.put("server.client_gap_ms", mean(&gaps));
    m.put("server.append_p50_ms", median(&appends));
    m.put("server.append_p99_ms", tail(&appends).0);
    m.put("server.publish_p50_ms", median(&flushes));
    m.put(
        "server.publish_share",
        flushes.iter().sum::<f64>() / (w.elapsed_s * 1e3),
    );
    m.put("server.writer_late_ms", mean(&late));
    m.put("server.generation_rows_end", rows_end as f64);
    for (c, (_, metric, _)) in CLASSES.iter().enumerate() {
        let lat = sorted(
            matched
                .iter()
                .filter(|(q, _)| q.class == c)
                .map(|(q, _)| (q.end_ns - q.start_ns) as f64 / 1e6)
                .collect(),
        );
        m.put(metric, median(&lat));
    }
    m.put("check.accounting_violations", violations as f64);
    m.put("trace.spans", spans.spans.len() as f64);
    Ok(())
}

pub fn run(args: &Args, clock: Clock) -> Result<Outcome, String> {
    let mixed = args.workload == Workload::ServeMixed;
    // Appends for the window: whole flush batches at the paced rate.
    let appends = if mixed {
        ((args.seconds * APPEND_RATE) as u64 / FLUSH_EVERY).max(1) * FLUSH_EVERY
    } else {
        0
    };
    let mut setup_s = Vec::new();
    let mut load_save_s = Vec::new();
    let mut timed_set_up = || -> Result<Setup, String> {
        let t = Instant::now();
        let s = set_up(args, clock, appends as usize)?;
        setup_s.push(t.elapsed().as_secs_f64());
        load_save_s.push(s.load_save_s);
        Ok(s)
    };
    for _ in 1..SETUP_REPS / 2 {
        timed_set_up()?.server.shutdown();
    }
    let s = timed_set_up()?;
    let result = measure(args, clock, &s, mixed);
    s.server.shutdown();
    let mut o = result?;
    o.metrics.put("peak_rss_mb", crate::peak_rss_mb());
    for _ in 0..SETUP_REPS / 2 {
        timed_set_up()?.server.shutdown();
    }
    let mb = s.ndjson.len() as f64 / 1e6;
    o.metrics.put("setup_s", median(&sorted(setup_s)));
    o.metrics
        .put("ingest_mb_s", mb / median(&sorted(load_save_s)));
    o.metrics.put(
        "stored_bytes_per_input_byte",
        s.stored_bytes as f64 / s.ndjson.len() as f64,
    );
    o.info.extend([
        ("input_docs", s.rows.to_string()),
        ("input_bytes", s.ndjson.len().to_string()),
        ("server_workers", SERVER_WORKERS.to_string()),
        ("readers", if mixed { "1" } else { "2" }.to_string()),
        ("append_docs", s.appends.len().to_string()),
        (
            "flush_policy",
            if mixed {
                format!("\".append at {APPEND_RATE}/s (open loop), .flush t every {FLUSH_EVERY} appends\"")
            } else {
                "\"no writes\"".to_string()
            },
        ),
    ]);
    Ok(o)
}

/// Gate, measure, and (for `serve-mixed`) check the final row count.
fn measure(args: &Args, clock: Clock, s: &Setup, mixed: bool) -> Result<Outcome, String> {
    let addr = s.server.addr();
    // The gate's connection closes before timing, so the windows use at
    // most two connections.
    gate(&mut Client::connect(addr)?, s.ndjson.as_bytes(), s.rows)?;
    let readers = if mixed { 1 } else { 2 };
    let mut o = Outcome::default();

    // Traces of the gate's queries are older than this one.
    let before = s.server.traces().last().map_or(0, |t| t.id);
    let w = window(addr, clock, readers, args.seconds, &s.appends)?;
    o.attempted += w.attempted();
    o.failed += w.failed();
    let lat = w.latencies_ms();
    o.info.push(("op_samples", lat.len().to_string()));
    o.info
        .push(("op_tail_percentile", tail(&lat).1.to_string()));
    let p50 = median(&lat);
    let ok = w.queries().filter(|q| q.ok).count();
    o.metrics.put("bench.op_p50_ms", p50);
    o.metrics.put("op_p90_ms", percentile(&lat, 90.0));
    o.metrics.put("bench.op_tail_ms", tail(&lat).0);
    o.metrics.put("ops_per_s", ok as f64 / w.elapsed_s);
    eprintln!(
        "{}: {} queries ({ok} ok), {:.1}/s, p50 {p50:.2} ms, tail {:.2} ms (p{}); {} appends, {} flushes",
        args.workload.name(),
        lat.len(),
        ok as f64 / w.elapsed_s,
        tail(&lat).0,
        tail(&lat).1,
        w.appends.len(),
        w.flushes.len()
    );
    let acked = w.appends.iter().filter(|a| a.ok).count() as u64;

    if args.trace {
        // Tracing adds no work to the window: the server records every
        // query's trace anyway, and the spans are built from the window's
        // samples afterwards. That building is the tracing overhead.
        let t = Instant::now();
        let traces: Vec<Arc<QueryTrace>> = s
            .server
            .traces()
            .into_iter()
            .filter(|t| t.id > before)
            .collect();
        let matched = match_traces(&w, &traces)?;
        let rows_end = generation(&mut Client::connect(addr)?)?.0;
        let mut spans = Spans::default();
        layer_metrics(&mut o, &w, &matched, &mut spans, rows_end)?;
        let overhead_ms = t.elapsed().as_secs_f64() * 1e3;
        o.metrics.put("trace.overhead_ms", overhead_ms);
        o.metrics
            .put("trace.overhead_share", overhead_ms / (w.elapsed_s * 1e3));
        o.spans = Some(spans);
    }

    // Every acknowledged append is visible after the final flush, and a
    // query over the socket counts the same rows.
    let mut control = Client::connect(addr)?;
    let (rows, pending) = generation(&mut control)?;
    let counted = count_all(&mut control)?;
    if mixed && (rows != s.rows + acked || pending != 0 || counted != rows) {
        return Err(format!(
            "gate: {rows} rows (+{pending} pending) and COUNT {counted} after {acked} acknowledged appends to {} rows",
            s.rows
        ));
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_expected_answer_fails_the_gate() {
        let got: Vec<String> = vec!["Phoenix | 10".into(), "Toronto | 12".into()];
        assert_eq!(compare_answers("c", &got, &got), Ok(()));
        let mut expected = got.clone();
        expected[1] = "Toronto | 13".into();
        let e = compare_answers("c", &expected, &got).unwrap_err();
        assert!(e.contains("row 1"), "{e}");
        assert!(compare_answers("c", &got[..1], &got).is_err());
        assert!(
            compare_answers("c", &[], &[]).is_err(),
            "an empty oracle proves nothing"
        );
    }

    fn trace(total_us: u64, phases_us: [u64; 4]) -> QueryTrace {
        let mut t = QueryTrace::begin(1, "c", "q", 1);
        let us = Duration::from_micros;
        t.queue_wait = us(phases_us[0]);
        t.plan = us(phases_us[1]);
        t.execute = us(phases_us[2]);
        t.respond = us(phases_us[3]);
        t.total = us(total_us);
        t.passes = vec![("predicate-pushdown", us(5)), ("join-reorder", us(10))];
        t
    }

    #[test]
    fn query_accounting_checks_each_level() {
        let q = QuerySample {
            class: 0,
            start_ns: 0,
            end_ns: 1_000_000,
            ok: true,
        };
        assert!(accounting_ok(&q, &trace(900, [100, 100, 500, 100])));
        assert!(
            accounting_ok(&q, &trace(1_050, [100, 100, 500, 100])),
            "client outran the write's return"
        );
        assert!(
            !accounting_ok(&q, &trace(1_150, [100, 100, 500, 100])),
            "server longer than client"
        );
        assert!(
            !accounting_ok(&q, &trace(700, [100, 100, 500, 100])),
            "phases longer than total"
        );
    }

    #[test]
    fn query_span_tree_attributes_client_gap_and_operators() {
        let q = QuerySample {
            class: 0,
            start_ns: 1_000_000,
            end_ns: 2_000_000,
            ok: true,
        };
        let t = trace(900, [100, 100, 500, 100]);
        let ops = OpTimes {
            ops: vec![
                ("query.scan".into(), 300_000),
                ("query.stage.aggregate".into(), 400_000),
            ],
            ..OpTimes::default()
        };
        let mut spans = Spans::default();
        record_query(&mut spans, 1, &q, &t, &ops);
        let st = spans.self_time_by_name();
        assert_eq!(st["sql.request"], 100_000, "client gap");
        assert_eq!(st["server.request"], 100_000, "untimed server bookkeeping");
        assert_eq!(st["query.plan"], 85_000);
        assert_eq!(st["query.scan"], 300_000);
        assert_eq!(
            st["query.stage.aggregate"], 200_000,
            "clipped to the execute span"
        );
        assert_eq!(st["query.execute"], 0);
        assert!(spans.spans.iter().all(|s| s.request == 1));
    }
}
