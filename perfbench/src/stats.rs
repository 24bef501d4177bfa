//! Sample statistics and the metric list a run emits.

use std::time::{Duration, Instant};

/// Fewest samples that must lie beyond a percentile before it is
/// emitted; below that the tail is a handful of outliers, not a
/// percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples a run must collect so its highest emitted percentile (p90)
/// has [`MIN_BEYOND`] samples beyond it.
pub const MIN_SAMPLES: usize = 100;

/// Passes a measurement runs at least (per seed), so each item's best
/// time has several chances to miss a burst of host contention.
pub const MIN_PASSES: usize = 3;

/// The nearest-rank `q`-quantile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of `samples` (lower middle for even counts); `None` when
/// empty. For a handful of whole repeats (store opens, pass walls),
/// which [`percentile`]'s tail rule would refuse.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[(sorted.len() - 1) / 2])
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// CPU time every thread of this process has used so far
/// (`CLOCK_PROCESS_CPUTIME_ID`). Unlike wall time it leaves out time the
/// process spends descheduled — the host's steal time, other tenants'
/// threads — and blocked on the disk.
pub fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::os::raw::c_long,
        tv_nsec: std::os::raw::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two C longs on
    // Linux), and the clock id is a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    // justified: the process CPU clock exists on every Linux kernel
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// How long something took, on both clocks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Took {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Process CPU seconds ([`process_cpu`]).
    pub cpu_s: f64,
}

/// A reading of both clocks.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu: Duration,
}

impl Stamp {
    /// Reads both clocks.
    pub fn now() -> Self {
        Stamp {
            wall: Instant::now(),
            cpu: process_cpu(),
        }
    }

    /// Time on both clocks since the reading.
    pub fn took(&self) -> Took {
        Took {
            cpu_s: secs(process_cpu().saturating_sub(self.cpu)),
            wall_s: secs(self.wall.elapsed()),
        }
    }
}

/// One emitted metric: value, unit, and the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples the value was computed from (1 for a single measurement
    /// or an exact count).
    pub samples: usize,
}

/// An ordered metric list.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    list: Vec<Metric>,
}

impl Metrics {
    /// Appends `name`.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.list.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
        });
    }

    /// Adds the `q`-percentile of `samples` as `name`, failing when the
    /// tail is too thin to emit it.
    pub fn put_percentile(
        &mut self,
        name: &str,
        samples: &[f64],
        q: f64,
        unit: &'static str,
    ) -> Result<(), String> {
        let value = percentile(samples, q).ok_or_else(|| {
            format!(
                "{name}: {} samples leave fewer than {MIN_BEYOND} beyond p{}",
                samples.len(),
                q * 100.0
            )
        })?;
        self.put(name, value, unit, samples.len());
        Ok(())
    }

    /// Every metric, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.list.iter()
    }
}

/// One pass's timings: one time per item, in the same item order as
/// every pass of its group, and the whole pass's time.
#[derive(Debug, Clone)]
pub struct PassTimes {
    /// Passes of one group time the same work (same seed).
    pub group: usize,
    /// Per-item time.
    pub items: Vec<Took>,
    /// The whole pass.
    pub pass: Took,
}

/// Whether a measurement has run long enough: `seconds` elapsed, every
/// group passed [`MIN_PASSES`] times (whole rounds only), and
/// [`MIN_SAMPLES`] latencies recorded.
pub fn enough(passes: &[PassTimes], groups: usize, start: Instant, seconds: f64) -> bool {
    let samples: usize = passes.iter().map(|p| p.items.len()).sum();
    passes.len() >= MIN_PASSES * groups
        && passes.len().is_multiple_of(groups)
        && secs(start.elapsed()) >= seconds
        && samples >= MIN_SAMPLES
}

/// The figures of one clock over a set of passes.
struct Figures {
    /// Items over the sum of the times in `items_ms`.
    per_s: f64,
    /// Each item's best time over the passes of its group (items of
    /// group 0 first), or every sample when that gives fewer than
    /// [`MIN_SAMPLES`] items.
    items_ms: Vec<f64>,
    /// Every sample.
    pooled_ms: Vec<f64>,
    /// Per group the fastest pass, averaged over groups.
    fastest_pass_s: f64,
    /// Every pass.
    passes_s: Vec<f64>,
}

fn figures(passes: &[PassTimes], groups: usize, clock: fn(&Took) -> f64) -> Figures {
    let mut best = Vec::new();
    let mut fastest = 0.0;
    for group in 0..groups {
        let mut items: Vec<f64> = Vec::new();
        let mut pass_min = f64::INFINITY;
        for pass in passes.iter().filter(|p| p.group == group) {
            if items.is_empty() {
                items = vec![f64::INFINITY; pass.items.len()];
            }
            for (b, t) in items.iter_mut().zip(&pass.items) {
                *b = b.min(clock(t));
            }
            pass_min = pass_min.min(clock(&pass.pass));
        }
        best.extend(items);
        fastest += pass_min;
    }
    let pooled: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.items.iter().map(clock))
        .collect();
    let items = if best.len() >= MIN_SAMPLES {
        best
    } else {
        pooled.clone()
    };
    let total: f64 = items.iter().fold(0.0, |a, b| a + b);
    Figures {
        per_s: items.len() as f64 / total,
        items_ms: items.iter().map(|s| s * 1e3).collect(),
        pooled_ms: pooled.iter().map(|s| s * 1e3).collect(),
        fastest_pass_s: fastest / groups as f64,
        passes_s: passes.iter().map(|p| clock(&p.pass)).collect(),
    }
}

/// The end-to-end timing metrics of `passes` over `groups` groups, in
/// process CPU time ([`process_cpu`]):
///
/// - `query_p50_ms` / `query_p90_ms`: percentiles over items of each
///   item's best time; a test-sized item set (fewer than
///   [`MIN_SAMPLES`] items) pools every sample instead;
/// - `queries_per_s`: items over the sum of their best times.
///
/// CPU time leaves out time the process waits on the disk (every cold
/// answer is fsynced) or is descheduled by the host; best times drop
/// bursts of contention that slow a whole pass. Contention that lasts a
/// whole run — other tenants sharing caches and memory bandwidth — moves
/// both clocks alike. The report gives the wall-clock counterparts and
/// the all-sample percentiles.
///
/// # Errors
///
/// Fails when no pass ran or a percentile lacks samples.
pub fn put_timings(
    m: &mut Metrics,
    passes: &[PassTimes],
    groups: usize,
) -> Result<Vec<String>, String> {
    let cpu = figures(passes, groups, |t| t.cpu_s);
    m.put("queries_per_s", cpu.per_s, "1/s", cpu.pooled_ms.len());
    m.put_percentile("query_p50_ms", &cpu.items_ms, 0.5, "ms")?;
    m.put_percentile("query_p90_ms", &cpu.items_ms, 0.9, "ms")?;

    let wall = figures(passes, groups, |t| t.wall_s);
    let mut report = vec![format!(
        "{} passes, {} items, {} samples; pass CPU min {} s, median {} s, max {} s; pass wall min {} s, median {} s, max {} s",
        passes.len(),
        cpu.items_ms.len(),
        cpu.pooled_ms.len(),
        cpu.passes_s.iter().fold(f64::INFINITY, |a, &b| a.min(b)),
        median(&cpu.passes_s).unwrap_or(0.0),
        cpu.passes_s.iter().fold(0.0, |a: f64, &b| a.max(b)),
        wall.passes_s.iter().fold(f64::INFINITY, |a, &b| a.min(b)),
        median(&wall.passes_s).unwrap_or(0.0),
        wall.passes_s.iter().fold(0.0, |a: f64, &b| a.max(b)),
    )];
    report.push(format!(
        "fastest pass (per seed, averaged over seeds): CPU {} s, wall {} s",
        cpu.fastest_pass_s, wall.fastest_pass_s,
    ));
    report.push(format!(
        "wall clock: queries_per_s {} 1/s, query_p50 {} ms, query_p90 {} ms",
        wall.per_s,
        percentile(&wall.items_ms, 0.5).unwrap_or(f64::NAN),
        percentile(&wall.items_ms, 0.9).unwrap_or(f64::NAN),
    ));
    for (clock, f) in [("CPU", &cpu), ("wall", &wall)] {
        for q in [0.5, 0.9, 0.99] {
            let n = f.pooled_ms.len();
            report.push(match percentile(&f.pooled_ms, q) {
                Some(v) => format!("all samples, {clock}: query_p{} {v} ms (n={n})", q * 100.0),
                None => format!(
                    "all samples, {clock}: query_p{} not emitted ({n} samples leave fewer than {MIN_BEYOND} beyond it)",
                    q * 100.0
                ),
            });
        }
    }
    Ok(report)
}

/// Adds `peak_heap_mb` and reports peak RSS (`VmHWM`) beside it.
pub(crate) fn put_memory(m: &mut Metrics, tally: &mut crate::Tally) {
    m.put("peak_heap_mb", crate::heap::peak_mb(), "MB", 1);
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    if let Some(line) = status.lines().find(|l| l.starts_with("VmHWM:")) {
        tally.note(format!(
            "peak RSS {}",
            line.trim_start_matches("VmHWM:").trim()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        assert_eq!(percentile(&samples, 0.99), None);
        assert_eq!(percentile(&samples[..19], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
