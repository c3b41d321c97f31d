//! `--compare A.json B.json`: two sets of full runs (from `--runs K
//! --out FILE`), judged metric by metric and workload by workload
//! against the bounds in `BENCHMARK.json`.

use crate::stats::{median, relative_spread};
use loom_obs::Json;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// Fewer pairs than this never show a gain.
const MIN_PAIRS: usize = 10;

/// Judge run set `b` against run set `a`, run `k` of each forming a
/// pair. Regressed: `b`'s median is worse than `a`'s by more than
/// `bound` (a share of `a`'s median). Improved: over at least ten
/// pairs, `b` wins nine tenths of them, or every run of `b` beats every
/// run of `a`, and the medians differ by more than `a`'s quartile
/// spread. Unresolved: the spread of either side exceeds the bound, so
/// the data cannot tell. When both sides repeat exactly, any difference
/// is a real one.
pub fn judge(a: &[f64], b: &[f64], bound: f64, higher_is_better: bool) -> Verdict {
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let (ma, mb) = (median(a), median(b));
    let scale = ma.abs().max(f64::MIN_POSITIVE);
    let worse = if higher_is_better { ma - mb } else { mb - ma } / scale;
    let (spread_a, spread_b) = (relative_spread(a), relative_spread(b));
    if spread_a == 0.0 && spread_b == 0.0 {
        return match worse {
            w if w > 0.0 => Verdict::Regressed,
            w if w < 0.0 => Verdict::Improved,
            _ => Verdict::Unchanged,
        };
    }
    let wins = a.iter().zip(b).filter(|&(&x, &y)| better(y, x)).count();
    let pairs = a.len().min(b.len());
    let dominates = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if pairs >= MIN_PAIRS && -worse > spread_a && (dominates || wins * 10 >= pairs * 9) {
        Verdict::Improved
    } else if spread_a.max(spread_b) > bound && !dominates {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// One run's requests: attempted, failed, and those that returned a
/// known gap's recorded wrong answer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Requests {
    pub attempted: u64,
    pub failed: u64,
    pub known_gap: u64,
}

/// Judge the failed requests of run set `b` against `a`, over all runs
/// of each: any increase of the failed share regresses, and so does a
/// known gap `a` had closed. A median or spread would hide a failure in
/// fewer than half of the runs.
pub fn judge_errors(a: &[Requests], b: &[Requests]) -> Verdict {
    let share = |runs: &[Requests], f: fn(&Requests) -> u64| {
        let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
        runs.iter().map(f).sum::<u64>() as f64 / attempted.max(1) as f64
    };
    let (fa, fb) = (share(a, |r| r.failed), share(b, |r| r.failed));
    let (ka, kb) = (share(a, |r| r.known_gap), share(b, |r| r.known_gap));
    if fb > fa || (ka == 0.0 && kb > 0.0) {
        Verdict::Regressed
    } else if fb < fa || (ka > 0.0 && kb == 0.0) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

/// Per run, the value `f` reads from workload `w`'s result.
fn series<T>(doc: &Json, w: &str, f: impl Fn(&Json) -> Option<T>) -> Vec<T> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|run| f(run.get(w)?))
        .collect()
}

fn requests(result: &Json) -> Option<Requests> {
    let count = |key| result.get(key)?.as_u64();
    Some(Requests {
        attempted: count("attempted")?,
        failed: count("failed")?,
        known_gap: count("known_gap")?,
    })
}

/// Print the verdict of every (metric, workload) pair; `Ok(false)` when
/// any regressed.
pub fn compare(before: &Path, after: &Path, spec: &Path) -> Result<bool, String> {
    let (a, b, spec) = (load(before)?, load(after)?, load(spec)?);
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("spec: no end_to_end metrics")?;
    let workloads: Vec<String> = a
        .get("runs")
        .and_then(|r| r.idx(0))
        .and_then(Json::as_obj)
        .ok_or("A: no runs")?
        .iter()
        .map(|(w, _)| w.clone())
        .collect();
    println!(
        "{:<18} {:<24} {:>14} {:>14} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "change", "IQR A", "IQR B"
    );
    let mut regressions = 0;
    for w in &workloads {
        let mut row = |name: &str, xa: &[f64], xb: &[f64], verdict| {
            regressions += usize::from(verdict == Verdict::Regressed);
            let (ma, mb) = (median(xa), median(xb));
            let change = if ma == 0.0 {
                0.0
            } else {
                100.0 * (mb - ma) / ma.abs()
            };
            println!(
                "{w:<18} {name:<24} {ma:>14.4} {mb:>14.4} {change:>7.2}% {:>7.2}% {:>7.2}%  {verdict:?}",
                100.0 * relative_spread(xa),
                100.0 * relative_spread(xb),
            );
        };
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("spec: metric name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("spec: bound")?;
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let value = |r: &Json| r.get("metrics")?.get(name)?.get("value")?.as_f64();
            let (xa, xb) = (series(&a, w, value), series(&b, w, value));
            if !xa.is_empty() && !xb.is_empty() {
                row(name, &xa, &xb, judge(&xa, &xb, bound, higher));
            }
        }
        // Failed or wrong over attempted, judged on the request totals.
        let (ra, rb) = (series(&a, w, requests), series(&b, w, requests));
        if !ra.is_empty() && !rb.is_empty() {
            let error_rate = |runs: &[Requests]| -> Vec<f64> {
                runs.iter()
                    .map(|r| (r.failed + r.known_gap) as f64 / r.attempted.max(1) as f64)
                    .collect()
            };
            row(
                "error_rate",
                &error_rate(&ra),
                &error_rate(&rb),
                judge_errors(&ra, &rb),
            );
        }
    }
    println!("{regressions} regression(s)");
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 10] = [10.0, 10.2, 9.9, 10.1, 10.0, 10.1, 9.9, 10.0, 10.2, 10.0];

    #[test]
    fn small_moves_within_the_bound_are_unchanged() {
        let b = A.map(|x| x + 0.1);
        assert_eq!(judge(&A, &b, 0.1, false), Verdict::Unchanged);
    }

    #[test]
    fn clear_moves_are_improved_or_regressed() {
        let slower = A.map(|x| x * 1.3);
        let faster = A.map(|x| x * 0.7);
        assert_eq!(judge(&A, &slower, 0.1, false), Verdict::Regressed);
        assert_eq!(judge(&A, &faster, 0.1, false), Verdict::Improved);
        // For throughput, higher is better.
        assert_eq!(judge(&A, &slower, 0.1, true), Verdict::Improved);
        // Five pairs are too few to show a gain.
        assert_eq!(judge(&A[..5], &faster[..5], 0.1, false), Verdict::Unchanged);
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved() {
        let noisy = [5.0, 15.0, 10.0, 20.0, 8.0, 12.0, 9.0, 18.0, 6.0, 11.0];
        assert_eq!(judge(&A, &noisy, 0.1, false), Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_must_match_exactly() {
        let same = [42.0; 5];
        assert_eq!(judge(&same, &same, 0.0, false), Verdict::Unchanged);
        assert_eq!(judge(&same, &[42.5; 5], 0.25, false), Verdict::Regressed);
        assert_eq!(judge(&same, &[41.0; 5], 0.25, false), Verdict::Improved);
    }

    fn runs(failed: &[u64], known_gap: u64) -> Vec<Requests> {
        failed
            .iter()
            .map(|&failed| Requests {
                attempted: 100,
                failed,
                known_gap,
            })
            .collect()
    }

    #[test]
    fn one_failure_in_one_run_regresses() {
        let mut b = [0; 10];
        b[9] = 1;
        assert_eq!(
            judge_errors(&runs(&[0; 10], 0), &runs(&b, 0)),
            Verdict::Regressed
        );
        assert_eq!(
            judge_errors(&runs(&b, 0), &runs(&[0; 10], 0)),
            Verdict::Improved
        );
        assert_eq!(judge_errors(&runs(&b, 0), &runs(&b, 0)), Verdict::Unchanged);
    }

    #[test]
    fn a_known_gap_is_the_baseline_until_it_closes() {
        // The gap's share of requests moves with where a run's last
        // round of the pool was cut.
        assert_eq!(
            judge_errors(&runs(&[0; 10], 9), &runs(&[0; 10], 10)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge_errors(&runs(&[0; 10], 9), &runs(&[0; 10], 0)),
            Verdict::Improved
        );
        assert_eq!(
            judge_errors(&runs(&[0; 10], 0), &runs(&[0; 10], 9)),
            Verdict::Regressed
        );
        // Closing the gap by failing elsewhere is no gain.
        assert_eq!(
            judge_errors(&runs(&[0; 10], 9), &runs(&[1; 10], 0)),
            Verdict::Regressed
        );
    }
}
