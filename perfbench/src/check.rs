//! Output checks on a `RunReport`. A run that panics or fails a
//! run-wide check counts every invocation of its trace as failed; an
//! invocation also fails when it has no completed record, more than
//! one, or a record whose end-to-end latency is below its execution
//! time.

use medes_core::metrics::{RunReport, StartType};
use medes_trace::Trace;
use std::collections::HashMap;

/// What the checks found in one run.
pub struct Verdict {
    /// Invocations without exactly one passing record.
    pub failed: u64,
    /// Human-readable descriptions of every failed check.
    pub problems: Vec<String>,
}

/// FNV-1a over the report's `Debug` rendering: equal digests mean
/// byte-identical reports.
pub fn digest(report: &RunReport) -> u64 {
    fnv1a(format!("{report:?}").as_bytes(), FNV_OFFSET)
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a state.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Checks one report against the trace it ran. `counters` are the
/// program's `medes.platform.starts.{warm,dedup,cold}` counts of a
/// traced run.
pub fn check(trace: &Trace, report: &RunReport, counters: Option<[u64; 3]>) -> Verdict {
    let n = trace.invocations.len() as u64;
    let mut problems = Vec::new();

    // Per invocation: exactly one record, and e2e >= exec.
    let mut seen: HashMap<u64, (u32, bool)> = trace
        .invocations
        .iter()
        .map(|inv| (inv.id, (0, true)))
        .collect();
    let mut unknown = 0u64;
    for r in &report.requests {
        match seen.get_mut(&r.id) {
            Some((count, ok)) => {
                *count += 1;
                *ok &= r.e2e_us >= r.exec_us;
            }
            None => unknown += 1,
        }
    }
    let mut failed = seen
        .values()
        .filter(|(count, ok)| *count != 1 || !ok)
        .count() as u64;
    if failed > 0 {
        problems.push(format!(
            "{failed} invocations lack exactly one record with e2e >= exec"
        ));
    }
    let invocation_problems = problems.len();

    // Run-wide accounting.
    if unknown > 0 {
        problems.push(format!("{unknown} records have ids not in the trace"));
    }
    let count = |t: StartType| report.requests.iter().filter(|r| r.start == t).count() as u64;
    let (warm, dedup, cold) = (
        count(StartType::Warm),
        count(StartType::Dedup),
        count(StartType::Cold),
    );
    // Every spawn serves its request as a cold start (no faults here).
    if cold != report.sandboxes_spawned {
        problems.push(format!(
            "cold starts {cold} != sandboxes spawned {}",
            report.sandboxes_spawned
        ));
    }
    // The program's own start counters, when the run was traced.
    if let Some([w, d, c]) = counters {
        if w + d + c != report.requests.len() as u64 || [w, d, c] != [warm, dedup, cold] {
            problems.push(format!(
                "start counters warm {w} + dedup {d} + cold {c} disagree with {} completed \
                 (warm {warm}, dedup {dedup}, cold {cold})",
                report.requests.len()
            ));
        }
    }
    let restores: u64 = report.dedup_stats.iter().map(|s| s.restores).sum();
    if restores != dedup {
        problems.push(format!(
            "dedup_stats restores {restores} != dedup starts {dedup}"
        ));
    }
    if report.sandboxes_deduped > report.sandboxes_spawned {
        problems.push(format!(
            "sandboxes_deduped {} > sandboxes_spawned {}",
            report.sandboxes_deduped, report.sandboxes_spawned
        ));
    }
    if report.registry_dead_node_locs != 0 {
        problems.push(format!(
            "{} registry locations point at down nodes",
            report.registry_dead_node_locs
        ));
    }
    if problems.len() > invocation_problems {
        failed = n; // a run-wide check failed: the whole run is suspect
    }
    Verdict { failed, problems }
}
