//! Open-loop pacing: the writer's schedule and how late it ran.

/// A fixed-rate schedule: operation `k` is due at `start + k / rate`.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    start_ns: u64,
    rate_per_s: f64,
}

impl Pacer {
    pub fn new(start_ns: u64, rate_per_s: f64) -> Pacer {
        assert!(rate_per_s > 0.0, "pacing rate must be positive");
        Pacer {
            start_ns,
            rate_per_s,
        }
    }

    /// When operation `k` is due.
    pub fn due_ns(&self, k: u64) -> u64 {
        self.start_ns + (k as f64 * 1e9 / self.rate_per_s).round() as u64
    }

    /// How long to wait at `now_ns` before sending operation `k`; 0 when
    /// the schedule is already behind.
    pub fn wait_ns(&self, k: u64, now_ns: u64) -> u64 {
        self.due_ns(k).saturating_sub(now_ns)
    }

    /// How late operation `k` was sent at `sent_ns`.
    pub fn late_ns(&self, k: u64, sent_ns: u64) -> u64 {
        sent_ns.saturating_sub(self.due_ns(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive the pacer against a simulated clock: each operation takes
    /// `service[k]` ns once sent. Returns each operation's lateness and its
    /// latency measured from when it was due.
    fn simulate(p: &Pacer, service: &[u64]) -> Vec<(u64, u64)> {
        let mut now = 0;
        service
            .iter()
            .enumerate()
            .map(|(k, &s)| {
                let k = k as u64;
                now += p.wait_ns(k, now);
                let late = p.late_ns(k, now);
                now += s;
                (late, now - p.due_ns(k))
            })
            .collect()
    }

    #[test]
    fn schedule_is_exact_at_400_per_second() {
        let p = Pacer::new(1_000, 400.0);
        assert_eq!(p.due_ns(0), 1_000);
        assert_eq!(p.due_ns(1), 1_000 + 2_500_000);
        assert_eq!(p.due_ns(400), 1_000 + 1_000_000_000);
    }

    #[test]
    fn a_stall_makes_later_operations_late_until_caught_up() {
        let p = Pacer::new(0, 400.0); // one op every 2.5 ms
        let ms = 1_000_000;
        let r = simulate(&p, &[ms, 10 * ms, ms, ms, ms, ms, ms]);
        let late: Vec<u64> = r.iter().map(|x| x.0).collect();
        // Op 1 runs 2.5..12.5 ms; op 2 was due at 5 ms, op 3 at 7.5 ms, ...
        assert_eq!(
            late,
            vec![0, 0, 7_500_000, 6_000_000, 4_500_000, 3_000_000, 1_500_000]
        );
        // Latency from due counts the wait the stall imposed.
        assert_eq!(r[2].1, 7_500_000 + ms);
        assert_eq!(r[0].1, ms);
    }

    #[test]
    fn on_schedule_operations_are_never_late() {
        let p = Pacer::new(0, 400.0);
        assert!(simulate(&p, &[100_000; 50]).iter().all(|&(l, _)| l == 0));
    }
}
