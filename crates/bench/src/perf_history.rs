//! Machine-checkable performance trajectory for the harness itself.
//!
//! After every experiment the harness appends one JSONL record —
//! experiment id, quick/full mode, wall-clock seconds, peak RSS — to
//! `<results_dir>/perf_history.jsonl`. Microbench ops append rows of
//! their own, carrying per-op p50/p95/p99 latency instead of a wall
//! time. Successive CI runs accumulate a
//! history that `trace diff`-style tooling (or a human with `jq`) can
//! scan for harness-level slowdowns and memory growth, which per-run
//! reports can't show.

use medes_obs::json::{Json, JsonMap};
use std::io::Write as _;
use std::path::Path;

/// One appended record.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRecord {
    /// Experiment id (`fig7a`, `obs-stream`, `microbench/<op>`, ...).
    pub experiment: String,
    /// Whether the run used `--quick` sizes.
    pub quick: bool,
    /// What was timed.
    pub timing: PerfTiming,
    /// Peak resident set size of the process so far, bytes (0 when the
    /// platform offers no reading).
    pub peak_rss_bytes: u64,
}

/// The time a [`PerfRecord`] carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PerfTiming {
    /// Wall-clock duration of a whole experiment (`wall_s`).
    Wall {
        /// Seconds.
        wall_s: f64,
    },
    /// Latency percentiles of one microbench op
    /// (`p50_s`/`p95_s`/`p99_s`).
    Op {
        /// Median, seconds.
        p50_s: f64,
        /// 95th percentile, seconds.
        p95_s: f64,
        /// 99th percentile, seconds.
        p99_s: f64,
    },
}

impl PerfRecord {
    /// Renders the record as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut m = JsonMap::new();
        m.insert("experiment", self.experiment.as_str());
        m.insert("quick", self.quick);
        match self.timing {
            PerfTiming::Wall { wall_s } => m.insert("wall_s", wall_s),
            PerfTiming::Op {
                p50_s,
                p95_s,
                p99_s,
            } => {
                m.insert("p50_s", p50_s);
                m.insert("p95_s", p95_s);
                m.insert("p99_s", p99_s);
            }
        }
        m.insert("peak_rss_bytes", self.peak_rss_bytes);
        Json::Object(m).to_string()
    }

    /// Parses one JSONL line back (None on malformed input).
    pub fn parse_line(line: &str) -> Option<PerfRecord> {
        let v = medes_obs::json::parse(line).ok()?;
        let secs = |key: &str| v.get(key).and_then(Json::as_f64);
        let timing = match secs("wall_s") {
            Some(wall_s) => PerfTiming::Wall { wall_s },
            None => PerfTiming::Op {
                p50_s: secs("p50_s")?,
                p95_s: secs("p95_s")?,
                p99_s: secs("p99_s")?,
            },
        };
        Some(PerfRecord {
            experiment: v.get("experiment")?.as_str()?.to_string(),
            quick: matches!(v.get("quick")?, Json::Bool(true)),
            timing,
            peak_rss_bytes: v.get("peak_rss_bytes")?.as_u64()?,
        })
    }
}

/// Peak resident set size of this process, bytes. Reads `VmHWM` from
/// `/proc/self/status` on Linux; 0 elsewhere (the record still carries
/// the wall time).
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kib: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kib * 1024;
                }
            }
        }
    }
    0
}

/// Appends one record to `<results_dir>/perf_history.jsonl`, creating
/// the directory and file as needed. Best-effort: failures warn on
/// stderr instead of aborting the experiment run.
pub fn append(results_dir: &Path, record: &PerfRecord) {
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(results_dir)?;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(results_dir.join("perf_history.jsonl"))?;
        writeln!(f, "{}", record.to_json_line())
    };
    if let Err(e) = write() {
        eprintln!("warning: failed to append perf history: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips() {
        let r = PerfRecord {
            experiment: "fig7a".to_string(),
            quick: true,
            timing: PerfTiming::Wall { wall_s: 1.25 },
            peak_rss_bytes: 4096,
        };
        let line = r.to_json_line();
        assert_eq!(
            line,
            "{\"experiment\":\"fig7a\",\"quick\":true,\"wall_s\":1.25,\"peak_rss_bytes\":4096}"
        );
        assert_eq!(PerfRecord::parse_line(&line), Some(r));
        assert_eq!(PerfRecord::parse_line("not json"), None);
    }

    #[test]
    fn microbench_record_round_trips_without_a_wall_time() {
        let r = PerfRecord {
            experiment: "microbench/image/templated".to_string(),
            quick: false,
            timing: PerfTiming::Op {
                p50_s: 2.5e-6,
                p95_s: 4e-6,
                p99_s: 8e-6,
            },
            peak_rss_bytes: 0,
        };
        let line = r.to_json_line();
        assert!(!line.contains("wall_s"), "{line}");
        assert!(line.contains("\"p99_s\":"), "{line}");
        assert_eq!(PerfRecord::parse_line(&line), Some(r));
        // A row with neither a wall time nor percentiles is malformed.
        let bare = "{\"experiment\":\"x\",\"quick\":true,\"peak_rss_bytes\":0}";
        assert_eq!(PerfRecord::parse_line(bare), None);
    }

    #[test]
    fn append_accumulates_lines() {
        let dir = std::env::temp_dir().join(format!("medes-perf-hist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = PerfRecord {
            experiment: "x".to_string(),
            quick: false,
            timing: PerfTiming::Wall { wall_s: 0.5 },
            peak_rss_bytes: 0,
        };
        append(&dir, &r);
        append(&dir, &r);
        let contents = std::fs::read_to_string(dir.join("perf_history.jsonl")).unwrap();
        let records: Vec<_> = contents
            .lines()
            .filter_map(PerfRecord::parse_line)
            .collect();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], r);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss > 0, "VmHWM should be readable on Linux");
        }
    }
}
