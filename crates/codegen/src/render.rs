//! Rendering SPMD programs as readable pseudo-code.

use crate::gen::Codegen;
use crate::ops::Op;
use loom_loopir::LoopNest;

/// Render one processor's program.
pub fn render_proc(nest: &LoopNest, cg: &Codegen, proc: usize) -> String {
    let mut out = format!("processor {proc}:\n");
    for op in &cg.program.per_proc[proc] {
        match op {
            Op::Recv { from, tag } => {
                let src = cg.program.points.point(tag.src_point as usize);
                out.push_str(&format!(
                    "  recv    <- P{from}   (dep {} of {:?})\n",
                    tag.dep, src
                ));
            }
            Op::Compute { point } => {
                let p = cg.program.points.point(*point as usize);
                out.push_str(&format!("  compute {:?}", p));
                for stmt in nest.stmts() {
                    out.push_str(&format!(
                        "  {}[{:?}] := …",
                        stmt.write().array(),
                        stmt.write().element_at(p)
                    ));
                }
                out.push('\n');
            }
            Op::Send { to, tag } => {
                let src = cg.program.points.point(tag.src_point as usize);
                out.push_str(&format!(
                    "  send    -> P{to}   (dep {} of {:?})\n",
                    tag.dep, src
                ));
            }
        }
    }
    out
}

/// Render the whole program.
pub fn render(nest: &LoopNest, cg: &Codegen) -> String {
    (0..cg.program.num_procs())
        .map(|p| render_proc(nest, cg, p))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use loom_hyperplane::TimeFn;
    use loom_partition::{partition, PartitionConfig};

    #[test]
    fn render_contains_structure() {
        let w = loom_workloads::l1::workload(4);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let cg = generate(&w.nest, &p, &[0, 1, 1, 0], 2).unwrap();
        let text = render(&w.nest, &cg);
        assert!(text.contains("processor 0:"));
        assert!(text.contains("processor 1:"));
        assert!(text.contains("compute"));
        assert!(text.contains("send    -> P"));
        assert!(text.contains("recv    <- P"));
        // Every compute line names the written element.
        assert!(text.contains("A[["));
    }
}
