//! Order statistics and the ratios the result tables are built from.

use zns::DeviceStats;

/// First quartile, median and third quartile of `values`, by the
/// "exclusive" method of Python's `statistics.quantiles(values, n=4)`
/// (the rule the driver applies to ten runs), so a spread printed here can
/// be compared with the driver's directly. One sample yields itself three
/// times.
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a sample"));
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    [1usize, 2, 3].map(|i| {
        // One-based rank i * (n + 1) / 4, linearly interpolated between
        // its neighbours (and, as Python does, extrapolated for n = 2).
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

/// Median of `values` (see [`quartiles`]).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// `p`-th percentile (nearest rank) of an ascending sample of nanosecond
/// latencies, with the number of samples strictly beyond that rank — the
/// count that says whether the percentile is supported (ten or more) or a
/// guess.
///
/// The device model quantises latency (0.5 us steps), so a rank often lands
/// inside a long run of equal samples. Such a run is spread evenly over the
/// gap to the next observed value (the grouped-data rule), so the percentile
/// moves with the rank instead of sticking to one step for every seed. A
/// sample without ties is returned as it is.
pub fn percentile(sorted: &[u64], p: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let rank = rank.min(sorted.len());
    let value = sorted[rank - 1];
    let first = sorted.partition_point(|&x| x < value);
    let end = sorted.partition_point(|&x| x <= value);
    let next = sorted.get(end).copied().unwrap_or(value);
    let into_run = (rank - 1 - first) as f64 / (end - first) as f64;
    Some((
        value as f64 + into_run * (next - value) as f64,
        sorted.len() - rank,
    ))
}

/// Write amplification over an interval: every sector the member devices
/// programmed (host writes of data, parity, metadata and GC copies, plus
/// the padding a zone finish programs) per user sector written.
pub fn waf(before: &[DeviceStats], after: &[DeviceStats], user_sectors: u64) -> f64 {
    let programmed = |s: &[DeviceStats]| -> u64 {
        s.iter()
            .map(|d| d.sectors_written + d.finish_fill_sectors)
            .sum()
    };
    if user_sectors == 0 {
        return 0.0;
    }
    (programmed(after) - programmed(before)) as f64 / user_sectors as f64
}

/// Lowest over highest of the per-window throughputs: 1.0 is a perfectly
/// flat run, a GC cliff pulls it toward 0.
pub fn flat_ratio(windows_mib_s: &[f64]) -> f64 {
    let max = windows_mib_s.iter().copied().fold(0.0, f64::max);
    let min = windows_mib_s.iter().copied().fold(f64::INFINITY, f64::min);
    if max == 0.0 {
        0.0
    } else {
        min / max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(median(&[4.0, 1.0, 9.0, 2.0]), 3.0);
    }

    #[test]
    fn percentile_reports_samples_beyond() {
        let v: Vec<u64> = (1..=2000).collect();
        assert_eq!(percentile(&v, 99.0), Some((1980.0, 20)));
        assert_eq!(percentile(&v, 50.0), Some((1000.0, 1000)));
        assert_eq!(percentile(&v, 100.0), Some((2000.0, 0)));
        assert_eq!(percentile(&[42], 99.0), Some((42.0, 0)));
        assert_eq!(percentile(&[], 99.0), None);
    }

    #[test]
    fn percentile_moves_through_a_run_of_ties() {
        // Ranks 3..=6 of 8 hold 500; the next observed value is 1000.
        let v = [100, 200, 500, 500, 500, 500, 1000, 1500];
        assert_eq!(percentile(&v, 37.5), Some((500.0, 5))); // rank 3: start of the run
        assert_eq!(percentile(&v, 50.0), Some((625.0, 4))); // rank 4: a quarter in
        assert_eq!(percentile(&v, 75.0), Some((875.0, 2))); // rank 6: three quarters in
        assert_eq!(percentile(&v, 87.5), Some((1000.0, 1)));
        // A run at the very top has nowhere to spread to.
        assert_eq!(percentile(&[7, 9, 9], 100.0), Some((9.0, 0)));
    }

    #[test]
    fn waf_counts_fill_and_every_member() {
        let dev = |w, fill| DeviceStats {
            sectors_written: w,
            finish_fill_sectors: fill,
            ..DeviceStats::default()
        };
        let before = [dev(100, 0), dev(50, 10)];
        let after = [dev(300, 0), dev(150, 40)];
        // (200 + 100 + 30) programmed for 264 user sectors.
        assert!((waf(&before, &after, 264) - 1.25).abs() < 1e-12);
        assert_eq!(waf(&before, &after, 0), 0.0);
    }

    #[test]
    fn flat_ratio_is_min_over_max() {
        assert_eq!(flat_ratio(&[100.0, 80.0, 90.0]), 0.8);
        assert_eq!(flat_ratio(&[]), 0.0);
    }
}
