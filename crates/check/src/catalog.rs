//! The rule catalogue: one table describing every `LC0NN` checker rule
//! and every `LP0NN` front-end rule, shared by `loom check --explain`
//! and kept in lock-step with `docs/CHECKS.md` / `docs/FRONTEND.md` (a
//! test asserts every entry has its heading in one of them).

use crate::diag::RuleId;

/// One catalogue entry.
#[derive(Clone, Copy, Debug)]
pub struct RuleDoc {
    /// The rule.
    pub rule: RuleId,
    /// Which engine runs it: `enumerative`, `symbolic`,
    /// `interleaving`, `plan` (artifact validation), or `front-end`
    /// (lexer/parser).
    pub engine: &'static str,
    /// The paper claim the rule certifies.
    pub paper: &'static str,
    /// One-sentence summary of what is checked.
    pub summary: &'static str,
}

const CATALOG: [RuleDoc; 26] = [
    RuleDoc {
        rule: RuleId::ScheduleLegality,
        engine: "enumerative",
        paper: "the hyperplane method's legality condition Pi*d >= 1 (Section II)",
        summary: "every dependence vector advances at least one schedule step",
    },
    RuleDoc {
        rule: RuleId::BlockSharedStep,
        engine: "enumerative",
        paper: "Lemma 1 (Section III)",
        summary: "no two iterations of one partition block share a hyperplane step \
                  (steps computed exactly in integers, Pi*x widened to i128)",
    },
    RuleDoc {
        rule: RuleId::NeighborBound,
        engine: "enumerative",
        paper: "Theorem 2 and Lemmas 2-3 (Section III)",
        summary: "every group sends data to at most 2m - beta other groups, with beta \
                  recomputed from the projected dependence matrix; along each grouping or \
                  auxiliary direction to at most one group (Lemma 2), along every other \
                  direction to at most two (Lemma 3)",
    },
    RuleDoc {
        rule: RuleId::GrayAdjacency,
        engine: "enumerative",
        paper: "Algorithm 2's Gray-code allocation",
        summary: "blocks exchanging data along a grouping direction land on hypercube \
                  neighbors; multi-hop routing is reported",
    },
    RuleDoc {
        rule: RuleId::DataRace,
        engine: "enumerative",
        paper: "the construction's implicit soundness claim",
        summary: "a static vector-clock happens-before scan finds conflicting array \
                  accesses no message synchronization orders",
    },
    RuleDoc {
        rule: RuleId::GroupingRank,
        engine: "enumerative",
        paper: "Algorithm 1's grouping-vector selection",
        summary: "the chosen grouping set holds beta linearly independent vectors",
    },
    RuleDoc {
        rule: RuleId::UnmatchedMessage,
        engine: "enumerative",
        paper: "the deadlock-freedom argument for generated programs",
        summary: "the vector-clock fixpoint leaves no receive stuck and no sent \
                  message unconsumed",
    },
    RuleDoc {
        rule: RuleId::FaultPlan,
        engine: "plan",
        paper: "none - guards the fault-injection extension (RESILIENCE.md)",
        summary: "a fault plan references live hardware and survives a JSON round trip \
                  before the simulator runs it",
    },
    RuleDoc {
        rule: RuleId::ParametricLegality,
        engine: "symbolic",
        paper: "the legality condition and Lemma 1 (Sections II-III), proven parametrically",
        summary: "legality and Lemma 1 at projection-line granularity; non-integral \
                  line differences close the proof for every iteration-space size",
    },
    RuleDoc {
        rule: RuleId::AccessDependence,
        engine: "symbolic",
        paper: "the front end's uniformity assumption (Section II)",
        summary: "the declared dependence set D is exactly what the array subscripts \
                  induce, by exact pairwise integer solving",
    },
    RuleDoc {
        rule: RuleId::ProtocolSummary,
        engine: "symbolic",
        paper: "the communication structure of Section III",
        summary: "arithmetic-progression send/recv summaries per (line, dependence) \
                  reproduce the Task Interaction Graph exactly",
    },
    RuleDoc {
        rule: RuleId::BlockingCycle,
        engine: "symbolic",
        paper: "the deadlock-freedom argument: every message crosses >= 1 schedule step",
        summary: "the lag-weighted block graph has no cycle of blocking waits with \
                  total schedule lag <= 0",
    },
    RuleDoc {
        rule: RuleId::InterleavingDeadlock,
        engine: "interleaving",
        paper: "the deadlock-freedom argument, strengthened to every message interleaving",
        summary: "a DPOR model checker proves no interleaving of the SPMD program \
                  reaches a state where every unfinished processor blocks; violations \
                  carry a minimal counterexample trace",
    },
    RuleDoc {
        rule: RuleId::InterleavingDeterminacy,
        engine: "interleaving",
        paper: "the equivalence of the parallel program with the sequential nest",
        summary: "explored interleavings are replayed through the interpreter and must \
                  produce one final memory, equal to the sequential oracle's",
    },
    RuleDoc {
        rule: RuleId::BlockAccessBounds,
        engine: "interleaving",
        paper: "well-formedness of the generated program's block accesses",
        summary: "interval abstract interpretation bounds every op index and array \
                  subscript; hulls are Presburger-certified (size-parametric) or \
                  enumerated (concrete)",
    },
    RuleDoc {
        rule: RuleId::UniformizeSoundness,
        engine: "symbolic",
        paper: "dependence folding / basic-vector decomposition (Kale et al., \
                arXiv:1311.2927), extending the uniform class of Section II",
        summary: "every point of the true variable-distance dependence relation is a \
                  non-negative integer combination of the synthesized vectors; the \
                  Presburger core refutes span, sign, and divisibility escapes",
    },
    RuleDoc {
        rule: RuleId::UniformizeTightness,
        engine: "symbolic",
        paper: "the parallelism trade-off of dependence folding (Kale et al.)",
        summary: "a synthesized vector admits iteration pairs that never conflict; the \
                  parallelism lost is reported as the legal-Pi count / schedule step \
                  bound change",
    },
    RuleDoc {
        rule: RuleId::UniformizeLegality,
        engine: "symbolic",
        paper: "the legality condition Pi*d >= 1 (Section II) over the folded set",
        summary: "the chosen schedule satisfies Pi*v >= 1 for every synthesized vector, \
                  so the folded nest re-passes LC001/LC009 at all sizes",
    },
    RuleDoc {
        rule: RuleId::LexInvalidChar,
        engine: "front-end",
        paper: "none - guards the .loom surface syntax",
        summary: "a character outside the .loom alphabet; the lexer skips the run \
                  and keeps tokenizing",
    },
    RuleDoc {
        rule: RuleId::LexIntOverflow,
        engine: "front-end",
        paper: "none - guards the .loom surface syntax",
        summary: "an integer literal that does not fit i64; the lexer substitutes 0 \
                  and continues",
    },
    RuleDoc {
        rule: RuleId::ParseExpected,
        engine: "front-end",
        paper: "none - guards the .loom surface syntax",
        summary: "a syntax error (expected X, found Y); the parser resynchronizes at \
                  the next statement, line, or bracket boundary",
    },
    RuleDoc {
        rule: RuleId::ParseUnknownIndex,
        engine: "front-end",
        paper: "the affine-subscript program class (Section II)",
        summary: "a subscript references an identifier that is not a loop index",
    },
    RuleDoc {
        rule: RuleId::ParseNonAffine,
        engine: "front-end",
        paper: "the affine-subscript program class (Section II)",
        summary: "a non-affine subscript (variable times variable) outside the class \
                  the dependence analysis handles",
    },
    RuleDoc {
        rule: RuleId::ParseBadStep,
        engine: "front-end",
        paper: "the normalized-loop assumption (Section II)",
        summary: "a malformed step clause: non-positive, non-integer, or non-unit \
                  with non-constant bounds",
    },
    RuleDoc {
        rule: RuleId::ParseInvalidNest,
        engine: "front-end",
        paper: "the perfectly-nested-loop program class (Section II)",
        summary: "the recovered pieces do not form a valid nest: no loops, no \
                  statements, or invalid bounds",
    },
    RuleDoc {
        rule: RuleId::ResourceLimit,
        engine: "front-end",
        paper: "none - guards untrusted input (ROADMAP item 3a)",
        summary: "a resource cap was hit (input size, token count, expression depth, \
                  nest depth, or the diagnostic cap) instead of exhausting memory or \
                  the stack",
    },
];

/// The full catalogue, in rule-id order.
pub fn catalog() -> &'static [RuleDoc; 26] {
    &CATALOG
}

/// Render the catalogue entry for `code` (an `LC0NN`/`LP0NN` id or a
/// rule name, case-insensitive). `None` for an unknown rule.
pub fn explain(code: &str) -> Option<String> {
    let want = code.trim().to_ascii_lowercase();
    let doc = CATALOG
        .iter()
        .find(|d| d.rule.code().to_ascii_lowercase() == want || d.rule.name() == want)?;
    let doc_file = if doc.engine == "front-end" {
        "docs/FRONTEND.md"
    } else {
        "docs/CHECKS.md"
    };
    Some(format!(
        "{} `{}`\n  engine:  {}\n  paper:   {}\n  checks:  {}\n\nSee {}#{}-{} for the full entry and an example diagnostic.\n",
        doc.rule.code(),
        doc.rule.name(),
        doc.engine,
        doc.paper,
        doc.summary,
        doc_file,
        doc.rule.code().to_ascii_lowercase(),
        doc.rule.name(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_every_rule_in_order() {
        let codes: Vec<&str> = CATALOG.iter().map(|d| d.rule.code()).collect();
        let all: Vec<&str> = RuleId::all().iter().map(|r| r.code()).collect();
        assert_eq!(codes, all);
    }

    #[test]
    fn explain_finds_by_code_and_name() {
        let by_code = explain("lc013").expect("known code");
        assert!(by_code.contains("interleaving-deadlock"));
        assert!(by_code.contains("DPOR"));
        let by_name = explain("data-race").expect("known name");
        assert!(by_name.contains("LC005"));
        assert!(explain("LC099").is_none());
        // Front-end rules resolve too, and point at FRONTEND.md.
        let lp = explain("lp004").expect("known front-end code");
        assert!(lp.contains("parse-unknown-index"));
        assert!(lp.contains("docs/FRONTEND.md"));
    }

    #[test]
    fn docs_have_a_heading_per_rule() {
        let checks =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/CHECKS.md"))
                .expect("docs/CHECKS.md present");
        let frontend = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../docs/FRONTEND.md"
        ))
        .expect("docs/FRONTEND.md present");
        for d in CATALOG.iter() {
            let heading = format!("### {} `{}`", d.rule.code(), d.rule.name());
            assert!(
                checks.contains(&heading) || frontend.contains(&heading),
                "docs/CHECKS.md and docs/FRONTEND.md are both missing the heading {heading:?}"
            );
        }
    }
}
