//! The `BENCH_*_timeline.json` exporter.
//!
//! The windowed latency digests live inside [`Recorder`] (same mutex as
//! the trace ring, so the hot path pays no extra lock); this module
//! renders them, with the whole-run stage digest, as one artifact.
//! Window instants derive from [`SimTime`] only, so identical runs
//! produce identical timelines.

use crate::{Recorder, Stage};
use sim::SimDuration;

fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// Renders the timeline artifact: whole-run stage percentiles and
/// per-window digests (with throughput derived from whole-op sectors of
/// `sector_bytes` each). `name` tags the producing experiment.
pub fn timeline_json(name: &str, recorder: &Recorder, sector_bytes: u64) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str(&format!("  \"name\": \"{}\",\n", crate::escape(name)));
    out.push_str("  \"kind\": \"timeline\",\n");
    let interval = recorder.window_interval().unwrap_or(SimDuration::ZERO);
    out.push_str(&format!("  \"window_ns\": {},\n", interval.as_nanos()));
    out.push_str(&format!(
        "  \"events_recorded\": {},\n",
        recorder.next_seq()
    ));
    out.push_str(&format!("  \"late_events\": {},\n", recorder.late_events()));
    out.push_str(&format!(
        "  \"windows_dropped\": {},\n",
        recorder.windows_dropped()
    ));

    // Whole-run per-stage digest (reference for windowed SLOs).
    out.push_str("  \"whole_run\": {\n    \"stages\": {\n");
    for (i, stage) in Stage::ALL.iter().enumerate() {
        let h = recorder.stage_histogram(*stage);
        out.push_str(&format!(
            "      \"{}\": {{\"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \
             \"p99_ns\": {}, \"max_ns\": {}}}{}\n",
            stage.name(),
            h.count(),
            h.percentile(50.0).as_nanos(),
            h.percentile(95.0).as_nanos(),
            h.percentile(99.0).as_nanos(),
            h.max().as_nanos(),
            if i + 1 < Stage::ALL.len() { "," } else { "" },
        ));
    }
    out.push_str("    }\n  },\n");

    // Tumbling windows.
    let windows = recorder.windows();
    let window_secs = interval.as_secs_f64();
    out.push_str("  \"windows\": [");
    for (wi, w) in windows.iter().enumerate() {
        let whole = &w.stages[Stage::WholeOp.index()];
        let mib_s = if window_secs > 0.0 {
            (whole.sectors * sector_bytes) as f64 / (1024.0 * 1024.0) / window_secs
        } else {
            0.0
        };
        out.push_str(if wi == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"index\": {}, \"start_ns\": {}, \"throughput_mib_s\": {}, \
             \"errors\": {}, \"stages\": {{",
            w.index,
            w.start.as_nanos(),
            fmt_f64(mib_s),
            w.errors
        ));
        for (i, stage) in Stage::ALL.iter().enumerate() {
            let s = &w.stages[stage.index()];
            out.push_str(&format!(
                "\"{}\": {{\"count\": {}, \"sectors\": {}, \"p50_ns\": {}, \
                 \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}{}",
                stage.name(),
                s.count,
                s.sectors,
                s.p50.as_nanos(),
                s.p95.as_nanos(),
                s.p99.as_nanos(),
                s.max.as_nanos(),
                if i + 1 < Stage::ALL.len() { ", " } else { "" },
            ));
        }
        out.push_str("}}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpClass, Outcome, TraceEvent};
    use sim::SimTime;

    #[test]
    fn timeline_json_contains_windows() {
        let rec = Recorder::new(64, 1);
        rec.enable_windows(SimDuration::from_millis(10), 128);
        for i in 0..4u64 {
            rec.record(TraceEvent {
                seq: 0,
                op: OpClass::Write,
                stage: Stage::WholeOp,
                path: None,
                device: crate::NONE,
                zone: crate::NONE,
                lba: 0,
                sectors: 8,
                start: SimTime::from_millis(i * 10),
                end: SimTime::from_millis(i * 10 + 1),
                outcome: Outcome::Success,
                span: 0,
                parent: 0,
                blame: crate::Actor::None,
            });
        }
        let json = timeline_json("demo", &rec, 4096);
        assert!(json.contains("\"kind\": \"timeline\""));
        assert!(json.contains("\"window_ns\": 10000000"));
        assert!(json.contains("\"whole_run\""));
        assert!(json.contains("\"throughput_mib_s\""));
        assert!(!json.contains("\"gauges\""));
        // All four windows present (three finalized + the open one).
        assert!(json.matches("\"index\":").count() >= 4);
        assert!(json.ends_with("\n  ]\n}\n"));
    }
}
