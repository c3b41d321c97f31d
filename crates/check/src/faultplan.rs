//! `LC008` — static validation of a fault plan against a topology.
//!
//! A fault plan is an artifact the user writes by hand (or commits from
//! a previous sweep), so before a simulation spends time executing it,
//! this rule checks the plan is *about the machine it will run on*:
//! every event names a processor that exists, every downed link is a
//! physical link of the topology, every transient window closes after
//! it opens, and the plan survives a JSON round trip unchanged (the
//! property that makes committed plans replayable).

use crate::diag::{Diagnostic, RuleId, Span};
use loom_machine::{FaultEvent, FaultPlan, Topology};
use loom_obs::Json;

fn rate_check(out: &mut Vec<Diagnostic>, what: &str, per_mille: u32) {
    if per_mille > 1000 {
        out.push(Diagnostic::error(
            RuleId::FaultPlan,
            Span::Nest,
            format!("{what} rate {per_mille}\u{2030} exceeds 1000\u{2030}"),
        ));
    }
}

fn window_check(out: &mut Vec<Diagnostic>, index: usize, at: u64, until: Option<u64>) {
    if let Some(u) = until {
        if u <= at {
            out.push(Diagnostic::error(
                RuleId::FaultPlan,
                Span::FaultEvent { index },
                format!("window [{at},{u}) is empty or inverted (until must exceed at)"),
            ));
        }
    }
}

fn proc_check(out: &mut Vec<Diagnostic>, index: usize, proc: usize, n: usize) -> bool {
    if proc >= n {
        out.push(Diagnostic::error(
            RuleId::FaultPlan,
            Span::FaultEvent { index },
            format!("P{proc} does not exist (machine has {n} processors)"),
        ));
        return false;
    }
    true
}

/// Validate `plan` against the `topology` it will be injected into.
///
/// Errors: a machine with more processors than `usize` counts (no plan
/// is checked against it), message-noise rates above 1000‰, events
/// naming processors outside the machine, `LinkDown` events naming
/// non-physical links, empty or inverted transient windows, zero
/// slowdown factors, and plans that do not re-serialize to themselves.
/// Warnings: noise with retries disabled (a single drop then aborts
/// the run), and no-op slowdown factors of 1.
pub fn check_fault_plan(plan: &FaultPlan, topology: &Topology) -> Vec<Diagnostic> {
    let Some(n) = topology.checked_len() else {
        return vec![Diagnostic::error(
            RuleId::FaultPlan,
            Span::Nest,
            format!("{topology:?} has more processors than a machine word counts"),
        )];
    };
    let mut out = Vec::new();
    rate_check(&mut out, "drop", plan.drop_per_mille);
    rate_check(&mut out, "corrupt", plan.corrupt_per_mille);
    rate_check(&mut out, "delay", plan.delay_per_mille);
    if plan.has_message_noise() && plan.max_retries == 0 {
        out.push(Diagnostic::warning(
            RuleId::FaultPlan,
            Span::Nest,
            "message noise with max_retries = 0: the first lost message aborts the run".to_string(),
        ));
    }
    for (index, ev) in plan.events.iter().enumerate() {
        match *ev {
            FaultEvent::LinkDown {
                from,
                to,
                at,
                until,
            } => {
                let from_ok = proc_check(&mut out, index, from, n);
                let to_ok = proc_check(&mut out, index, to, n);
                if from_ok && to_ok && !topology.neighbors(from).contains(&to) {
                    out.push(Diagnostic::error(
                        RuleId::FaultPlan,
                        Span::FaultEvent { index },
                        format!("{from}->{to} is not a physical link of {topology:?}"),
                    ));
                }
                window_check(&mut out, index, at, until);
            }
            FaultEvent::ProcSlow {
                proc,
                factor,
                at,
                until,
            } => {
                proc_check(&mut out, index, proc, n);
                window_check(&mut out, index, at, until);
                if factor == 0 {
                    out.push(Diagnostic::error(
                        RuleId::FaultPlan,
                        Span::FaultEvent { index },
                        "slowdown factor 0 would stop time; use a crash instead".to_string(),
                    ));
                } else if factor == 1 {
                    out.push(Diagnostic::warning(
                        RuleId::FaultPlan,
                        Span::FaultEvent { index },
                        "slowdown factor 1 is a no-op".to_string(),
                    ));
                }
            }
            FaultEvent::ProcCrash { proc, at: _ } => {
                proc_check(&mut out, index, proc, n);
            }
        }
    }
    // Replayability: a committed plan must deserialize back to itself.
    let round = Json::parse(&plan.to_json().render_pretty())
        .ok()
        .and_then(|doc| FaultPlan::from_json(&doc).ok());
    if round.as_ref() != Some(plan) {
        out.push(Diagnostic::error(
            RuleId::FaultPlan,
            Span::Nest,
            "plan does not survive a JSON round trip; it cannot be replayed from disk".to_string(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn cube() -> Topology {
        Topology::Hypercube(2)
    }

    #[test]
    fn empty_plan_is_clean() {
        assert!(check_fault_plan(&FaultPlan::none(), &cube()).is_empty());
    }

    #[test]
    fn machines_past_the_word_are_refused() {
        for topology in [
            Topology::Hypercube(64),
            Topology::Mesh {
                rows: 1 << 32,
                cols: 1 << 32,
            },
        ] {
            let ds = check_fault_plan(&FaultPlan::none(), &topology);
            assert_eq!(ds.len(), 1, "{topology:?}");
            assert_eq!(ds[0].severity, Severity::Error);
            assert!(ds[0].message.contains("more processors"), "{:?}", ds[0]);
        }
    }

    #[test]
    fn valid_plan_is_clean() {
        let plan = FaultPlan::message_noise(7, 50, 10, 100)
            .with_event(FaultEvent::LinkDown {
                from: 0,
                to: 1,
                at: 10,
                until: Some(20),
            })
            .with_crash(3, 40);
        assert!(check_fault_plan(&plan, &cube()).is_empty());
    }

    #[test]
    fn rejects_dead_references_and_bad_windows() {
        let plan = FaultPlan::none()
            .with_event(FaultEvent::LinkDown {
                from: 0,
                to: 3, // 0 and 3 differ in two bits: not a cube edge
                at: 0,
                until: None,
            })
            .with_event(FaultEvent::ProcSlow {
                proc: 9, // out of range
                factor: 2,
                at: 5,
                until: Some(5), // empty window
            })
            .with_crash(4, 0); // out of range
        let ds = check_fault_plan(&plan, &cube());
        let errors: Vec<&str> = ds
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(errors.len(), 4, "{ds:?}");
        assert!(errors[0].contains("not a physical link"));
        assert!(errors[1].contains("P9 does not exist"));
        assert!(errors[2].contains("empty or inverted"));
        assert!(errors[3].contains("P4 does not exist"));
        assert!(ds.iter().all(|d| d.rule == RuleId::FaultPlan));
    }

    #[test]
    fn warns_on_noise_without_retries_and_noop_slowdown() {
        let mut plan = FaultPlan::message_noise(1, 100, 0, 0).with_event(FaultEvent::ProcSlow {
            proc: 0,
            factor: 1,
            at: 0,
            until: None,
        });
        plan.max_retries = 0;
        let ds = check_fault_plan(&plan, &cube());
        assert_eq!(ds.len(), 2);
        assert!(ds.iter().all(|d| d.severity == Severity::Warning));
        assert!(ds[0].message.contains("max_retries = 0"));
        assert!(ds[1].message.contains("no-op"));
    }

    #[test]
    fn rejects_overrange_rates() {
        let mut plan = FaultPlan::none();
        plan.drop_per_mille = 2000;
        let ds = check_fault_plan(&plan, &cube());
        assert!(ds
            .iter()
            .any(|d| d.severity == Severity::Error && d.message.contains("2000")));
    }

    #[test]
    fn zero_slow_factor_is_an_error() {
        let plan = FaultPlan::none().with_event(FaultEvent::ProcSlow {
            proc: 0,
            factor: 0,
            at: 0,
            until: None,
        });
        let ds = check_fault_plan(&plan, &cube());
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].severity, Severity::Error);
        assert_eq!(ds[0].span, Span::FaultEvent { index: 0 });
    }
}
