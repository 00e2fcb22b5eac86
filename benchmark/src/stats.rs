//! Percentiles, medians, and the few readings the benchmark takes of its
//! own process and machine from `/proc`.

use std::time::Instant;

/// Nearest-rank percentile of an ascending slice; `p` in `(0, 1]`.
/// No samples give 0, which callers report as a fault of the run.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sort(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    let sorted = sort(values.to_vec());
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method).
/// Needs two values or more.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let sorted = sort(values.to_vec());
    let n = sorted.len();
    assert!(n >= 2, "quartiles need two values");
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    })
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the bounds are judged against.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it; with fewer than twenty samples only the median.
pub fn highest_supported_percentile(samples: usize) -> f64 {
    // In whole per-mille, so that 100 samples × 10% is exactly 10.
    [999, 990, 950, 900]
        .into_iter()
        .find(|permille| samples * (1000 - permille) / 1000 >= 10)
        .map_or(0.5, |permille| permille as f64 / 1000.0)
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// User + system CPU time of this process, all threads (dead ones too), ms.
/// `/proc/self/stat` counts in clock ticks; Linux fixes USER_HZ at 100.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 * 10.0
}

/// CPU time the calling thread has run, ms (nanosecond source).
pub fn thread_cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e6)
}

/// CPU time of the threads alive right now, ms, at nanosecond resolution.
/// Exact over an interval in which no thread ends — an idle process.
pub fn live_threads_cpu_ms() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum::<u64>() as f64
        / 1e6
}

/// Resident memory now, MB.
pub fn rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmRSS:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// High-water mark of resident memory, MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

pub fn thread_count() -> f64 {
    proc_field("/proc/self/status", "Threads:").map_or(0.0, |n| n as f64)
}

/// Context switches on the whole machine since boot. Threads here are
/// short-lived (one per task), so per-thread counters would lose most of
/// them; on an otherwise idle box the machine-wide delta is this process.
pub fn machine_ctx_switches() -> f64 {
    proc_field("/proc/stat", "ctxt").map_or(0.0, |n| n as f64)
}

pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median cost of writing 4 KiB and `fdatasync`ing it, µs: the machine's
/// floor under every durable commit.
pub fn fsync_probe_us(dir: &std::path::Path) -> f64 {
    use std::io::Write;
    let path = dir.join("fsync.probe");
    let mut file = std::fs::File::create(&path).expect("create fsync probe file");
    let block = [0x5au8; 4096];
    let mut samples = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        file.write_all(&block).expect("write probe block");
        file.sync_data().expect("fdatasync probe file");
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let _ = std::fs::remove_file(&path);
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), 0.5);
        assert_eq!(highest_supported_percentile(100), 0.9);
        assert_eq!(highest_supported_percentile(199), 0.9);
        assert_eq!(highest_supported_percentile(200), 0.95);
        assert_eq!(highest_supported_percentile(999), 0.95);
        assert_eq!(highest_supported_percentile(1000), 0.99);
        assert_eq!(highest_supported_percentile(10_000), 0.999);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
