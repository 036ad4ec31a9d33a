//! In-memory span recording for the traced run, span self time, and the
//! operator times inside a query's `ExecProfile` JSON.

use std::collections::BTreeMap;

/// One timed interval. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same [`Spans`] log.
    pub parent: Option<usize>,
    /// Shared by every span of one request (load, query, append, flush).
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory until the run ends.
#[derive(Debug, Default)]
pub struct Spans {
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn push(
        &mut self,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Append a sequence of back-to-back children starting at `start_ns`
    /// under `parent`; returns the index of each child.
    pub fn push_sequence(
        &mut self,
        parent: usize,
        start_ns: u64,
        children: &[(&str, u64)],
    ) -> Vec<usize> {
        let request = self.spans[parent].request;
        let mut at = start_ns;
        children
            .iter()
            .map(|&(name, d)| {
                let i = self.push(name, at, at + d, Some(parent), request);
                at += d;
                i
            })
            .collect()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval covered by the union of its children's intervals.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// Summed self time per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(s.name.clone()).or_insert(0) += t;
        }
        out
    }

    /// One JSON object per line: name, start, end, parent, request.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let mut name = String::new();
            jt_json::write_escaped_str(&mut name, &s.name);
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":{name},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}\n",
                s.start_ns, s.end_ns, s.request
            ));
        }
        out
    }
}

/// Length of `[lo, hi)` covered by the union of `intervals`, each clipped
/// to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Operator times and counts read from one `jt-exec-profile/v1` document.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct OpTimes {
    pub scan_ns: u64,
    pub tiles_total: u64,
    pub tiles_skipped: u64,
    pub rows_scanned: u64,
    pub rows_out: u64,
    pub join_build_ns: u64,
    pub join_probe_ns: u64,
    /// `aggregate` stages.
    pub agg_ns: u64,
    /// `order-by` and `top-k` stages.
    pub sort_ns: u64,
    /// Every operator in document order: `(span name, wall ns)`.
    pub ops: Vec<(String, u64)>,
}

fn field_u64(v: &jt_json::Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(|x| x.as_i64())
        .map(|x| x.max(0) as u64)
        .ok_or_else(|| format!("profile field {key} missing"))
}

fn list<'a>(v: &'a jt_json::Value, key: &str) -> Result<&'a [jt_json::Value], String> {
    v.get(key)
        .and_then(|x| x.as_array())
        .ok_or_else(|| format!("profile list {key} missing"))
}

/// Parse an `ExecProfile::to_json()` document.
pub fn parse_profile(json: &str) -> Result<OpTimes, String> {
    let doc = jt_json::parse(json).map_err(|e| format!("profile json: {e}"))?;
    let mut t = OpTimes {
        rows_out: field_u64(&doc, "rows_out")?,
        ..OpTimes::default()
    };
    for s in list(&doc, "scans")? {
        let wall = field_u64(s, "wall_ns")?;
        t.scan_ns += wall;
        t.tiles_total += field_u64(s, "tiles_total")?;
        t.tiles_skipped += field_u64(s, "tiles_skipped")?;
        t.rows_scanned += field_u64(s, "rows_scanned")?;
        t.ops.push(("query.scan".into(), wall));
    }
    for j in list(&doc, "joins")? {
        let (build, probe) = (
            field_u64(j, "build_wall_ns")?,
            field_u64(j, "probe_wall_ns")?,
        );
        t.join_build_ns += build;
        t.join_probe_ns += probe;
        t.ops.push(("query.join_build".into(), build));
        t.ops.push(("query.join_probe".into(), probe));
    }
    for st in list(&doc, "stages")? {
        let wall = field_u64(st, "wall_ns")?;
        let name = st
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or("profile stage name missing")?;
        match name {
            "aggregate" => t.agg_ns += wall,
            "order-by" | "top-k" => t.sort_ns += wall,
            _ => {}
        }
        t.ops.push((format!("query.stage.{name}"), wall));
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_union_of_children() {
        let mut s = Spans::default();
        let root = s.push("root", 0, 100, None, 1);
        s.push("a", 10, 40, Some(root), 1);
        s.push("b", 30, 60, Some(root), 1); // overlaps a: union is 10..60
        let c = s.push("c", 90, 130, Some(root), 1); // clipped to 90..100
        s.push("grandchild", 95, 99, Some(c), 1);
        let st = s.self_times_ns();
        assert_eq!(st[root], 100 - 50 - 10);
        assert_eq!(st[1], 30);
        assert_eq!(st[c], 40 - 4);
        assert_eq!(st[4], 4);
        assert_eq!(s.self_time_by_name()["root"], 40);
    }

    #[test]
    fn sequence_lays_children_back_to_back() {
        let mut s = Spans::default();
        let root = s.push("q", 0, 50, None, 7);
        let kids = s.push_sequence(root, 5, &[("x", 10), ("y", 20)]);
        assert_eq!(
            (s.spans[kids[0]].start_ns, s.spans[kids[0]].end_ns),
            (5, 15)
        );
        assert_eq!(
            (s.spans[kids[1]].start_ns, s.spans[kids[1]].end_ns),
            (15, 35)
        );
        assert_eq!(s.spans[kids[1]].request, 7);
        assert_eq!(s.self_times_ns()[root], 20);
        assert!(s
            .to_jsonl()
            .lines()
            .nth(2)
            .unwrap()
            .contains("\"parent\":0"));
    }

    #[test]
    fn parses_profile_json_into_layer_times() {
        let json = r#"{"schema":"jt-exec-profile/v1","total_ns":9000,"rows_out":4,
            "scans":[{"table":"t","rows_total":100,"estimated_rows":10,"wall_ns":1000,
              "tiles_total":8,"tiles_scanned":6,"tiles_skipped":2,"skipped_header_stats":2,
              "skipped_bloom":0,"skipped_bound":0,"rows_scanned":60,"rows_kernel":60,
              "rows_batched":0,"rows_exact":0,"rows_passthrough":0,"rows_out":20},
             {"table":"t","rows_total":100,"estimated_rows":10,"wall_ns":500,
              "tiles_total":8,"tiles_scanned":8,"tiles_skipped":0,"skipped_header_stats":0,
              "skipped_bloom":0,"skipped_bound":0,"rows_scanned":80,"rows_kernel":80,
              "rows_batched":0,"rows_exact":0,"rows_passthrough":0,"rows_out":30}],
            "joins":[{"left":"a","right":"b","kind":"inner","build_rows":20,"probe_rows":30,
              "rows_out":12,"estimated_out":10,"wall_ns":700,"partitions":4,"threads":2,
              "build_wall_ns":300,"probe_wall_ns":350}],
            "stages":[{"name":"aggregate","rows_out":4,"wall_ns":200,"threads":2,"partitions":4,
              "eval_wall_ns":1,"accumulate_wall_ns":1,"merge_wall_ns":1},
             {"name":"top-k","rows_out":4,"wall_ns":50,"threads":1,"partitions":1,
              "eval_wall_ns":0,"accumulate_wall_ns":0,"merge_wall_ns":0},
             {"name":"select","rows_out":4,"wall_ns":5,"threads":1,"partitions":1,
              "eval_wall_ns":0,"accumulate_wall_ns":0,"merge_wall_ns":0}]}"#;
        let t = parse_profile(json).unwrap();
        assert_eq!(t.scan_ns, 1500);
        assert_eq!((t.tiles_total, t.tiles_skipped), (16, 2));
        assert_eq!((t.rows_scanned, t.rows_out), (140, 4));
        assert_eq!((t.join_build_ns, t.join_probe_ns), (300, 350));
        assert_eq!((t.agg_ns, t.sort_ns), (200, 50));
        assert_eq!(t.ops.len(), 7);
        assert_eq!(t.ops[6], ("query.stage.select".to_string(), 5));
    }

    #[test]
    fn malformed_profile_is_an_error() {
        assert!(parse_profile("{\"rows_out\":1}").is_err());
        assert!(parse_profile("not json").is_err());
    }
}
