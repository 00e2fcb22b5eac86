//! Execution planning: ordering, consolidation, and pushdown export.
//!
//! §3.3 names two integrator-side optimizations this module implements:
//!
//! * **Consolidation** — combine multiple state-processing operations into
//!   fewer ones. The planner groups consecutive (dependency-respecting)
//!   assignments to the same target into one [`Step`], so the Cast
//!   integrator issues one patch per step instead of one per assignment.
//! * **Pushdown** — offload composition logic into the data exchange.
//!   [`Plan::to_udf_assignments`] exports a DXG (or one alias's slice of
//!   it) as store-side UDF assignments ready for
//!   `DataExchange::register_udf`.

use crate::analyze::analyze;
use crate::spec::Dxg;
use knactor_store::udf::UdfAssignment;
use knactor_types::{Error, Result};

/// One consolidated write: all assignments in a step target the same
/// alias and are applied as a single patch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    pub target_alias: String,
    /// Indices into `Dxg::assignments`, in evaluation order.
    pub assignments: Vec<usize>,
    /// Write references (`alias.path`) of those assignments, parallel to
    /// `assignments`. This is the attribution [`crate::diff`] output maps
    /// through: a `Change` names a write ref, [`Plan::step_for`] names
    /// the step — and therefore the edge/integrator — it lands in.
    pub writes: Vec<String>,
}

/// A dependency-respecting, consolidated execution plan.
#[derive(Debug, Clone)]
pub struct Plan {
    pub steps: Vec<Step>,
}

impl Plan {
    /// Build a plan for a DXG. Fails if static analysis finds errors
    /// (cycles, overlapping writes) — an invalid spec must not reach an
    /// integrator.
    pub fn build(dxg: &Dxg) -> Result<Plan> {
        let analysis = analyze(dxg);
        if analysis.has_errors() {
            let msgs: Vec<String> = analysis.errors().map(|f| f.message.clone()).collect();
            return Err(Error::Dxg(format!("invalid DXG: {}", msgs.join("; "))));
        }
        let order = analysis
            .order
            .ok_or_else(|| Error::Dxg("no evaluation order (cycle)".to_string()))?;

        // Consolidate runs of same-target assignments.
        let mut steps: Vec<Step> = Vec::new();
        for idx in order {
            let alias = dxg.assignments[idx].target_alias.clone();
            let write = dxg.assignments[idx].write_ref();
            match steps.last_mut() {
                Some(step) if step.target_alias == alias => {
                    step.assignments.push(idx);
                    step.writes.push(write);
                }
                _ => steps.push(Step {
                    target_alias: alias,
                    assignments: vec![idx],
                    writes: vec![write],
                }),
            }
        }
        Ok(Plan { steps })
    }

    /// The step a write reference lands in (diff → plan attribution):
    /// given a `Change`'s target, this names the step whose patch the
    /// change alters, and `steps[i].target_alias` names the edge whose
    /// integrator must be reconfigured.
    pub fn step_for(&self, write_ref: &str) -> Option<usize> {
        self.steps
            .iter()
            .position(|s| s.writes.iter().any(|w| w == write_ref))
    }

    /// Total number of write operations the plan issues (one per step)
    /// versus the naive one-per-assignment count — the consolidation
    /// benchmark reports both.
    pub fn write_ops(&self) -> usize {
        self.steps.len()
    }

    pub fn assignment_count(&self) -> usize {
        self.steps.iter().map(|s| s.assignments.len()).sum()
    }

    /// Export the whole DXG as UDF assignments for pushdown. All aliases
    /// in `Input` become UDF inputs.
    pub fn to_udf_assignments(&self, dxg: &Dxg) -> Vec<UdfAssignment> {
        self.steps
            .iter()
            .flat_map(|s| s.assignments.iter())
            .map(|&i| {
                let a = &dxg.assignments[i];
                UdfAssignment {
                    target_alias: a.target_alias.clone(),
                    target_path: a.target_path().to_string(),
                    // `this` was resolved at parse; the printed expression
                    // is self-contained.
                    expr: a.expr.to_string(),
                }
            })
            .collect()
    }

    /// The UDF input list for [`Plan::to_udf_assignments`].
    pub fn udf_inputs(dxg: &Dxg) -> Vec<String> {
        dxg.inputs.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FIG6_RETAIL_DXG;

    #[test]
    fn fig6_plan_consolidates() {
        let dxg = Dxg::parse(FIG6_RETAIL_DXG).unwrap();
        let plan = Plan::build(&dxg).unwrap();
        assert_eq!(plan.assignment_count(), 8);
        // 8 assignments across 3 targets consolidate into at most 8 and
        // hopefully ~3 write ops; must be strictly fewer than naive.
        assert!(
            plan.write_ops() < 8,
            "consolidation saved nothing: {plan:?}"
        );
        // Every step is single-target.
        for step in &plan.steps {
            assert!(!step.assignments.is_empty());
            for &i in &step.assignments {
                assert_eq!(dxg.assignments[i].target_alias, step.target_alias);
            }
        }
    }

    #[test]
    fn steps_attribute_writes_to_edges() {
        let dxg = Dxg::parse(FIG6_RETAIL_DXG).unwrap();
        let plan = Plan::build(&dxg).unwrap();
        for step in &plan.steps {
            assert_eq!(step.writes.len(), step.assignments.len());
            for (&i, w) in step.assignments.iter().zip(&step.writes) {
                assert_eq!(&dxg.assignments[i].write_ref(), w);
            }
        }
        // A diff target maps to the step (and edge) it belongs to.
        let i = plan.step_for("S.method").expect("S.method is planned");
        assert_eq!(plan.steps[i].target_alias, "S");
        assert_eq!(plan.step_for("S.nonexistent"), None);
    }

    #[test]
    fn edge_slices_plan_independently() {
        // Each per-target edge of Fig. 6 yields a valid single-target
        // plan, and together they cover every assignment exactly once.
        let dxg = Dxg::parse(FIG6_RETAIL_DXG).unwrap();
        let edges = dxg.edges();
        assert_eq!(
            edges.keys().cloned().collect::<Vec<_>>(),
            vec!["C", "P", "S"]
        );
        let mut covered = 0;
        for (target, edge) in &edges {
            let plan = Plan::build(edge).unwrap();
            for step in &plan.steps {
                assert_eq!(&step.target_alias, target);
            }
            covered += plan.assignment_count();
            // Inputs are restricted to what the slice touches.
            for alias in edge.inputs.keys() {
                assert!(
                    alias == target
                        || edge
                            .assignments
                            .iter()
                            .any(|a| a.expr.free_roots().contains(alias)),
                    "edge {target} carries unused input {alias}"
                );
            }
        }
        assert_eq!(covered, dxg.assignments.len());
    }

    #[test]
    fn plan_refuses_cyclic_spec() {
        let src = "Input:\n  A: g/v/s/a\n  B: g/v/s/b\nDXG:\n  A:\n    x: B.y\n  B:\n    y: A.x\n";
        let dxg = Dxg::parse(src).unwrap();
        assert!(matches!(Plan::build(&dxg), Err(Error::Dxg(_))));
    }

    #[test]
    fn plan_respects_dependencies_across_steps() {
        let src = "\
Input:
  A: g/v/s/a
  B: g/v/s/b
  C: g/v/s/c
DXG:
  B:
    y: A.x
  C:
    z: B.y
  A:
    w: '1'
";
        let dxg = Dxg::parse(src).unwrap();
        let plan = Plan::build(&dxg).unwrap();
        let step_of = |write: &str| {
            plan.steps
                .iter()
                .position(|s| {
                    s.assignments
                        .iter()
                        .any(|&i| dxg.assignments[i].write_ref() == write)
                })
                .unwrap()
        };
        assert!(step_of("B.y") < step_of("C.z"));
    }

    #[test]
    fn udf_export_roundtrips_expressions() {
        let dxg = Dxg::parse(FIG6_RETAIL_DXG).unwrap();
        let plan = Plan::build(&dxg).unwrap();
        let udfs = plan.to_udf_assignments(&dxg);
        assert_eq!(udfs.len(), 8);
        // Exported expressions parse (they feed Udf::compile verbatim).
        for a in &udfs {
            knactor_expr::parse_expr(&a.expr)
                .unwrap_or_else(|e| panic!("exported expr '{}' invalid: {e}", a.expr));
        }
        // `this` is gone.
        for a in &udfs {
            assert!(!a.expr.contains("this"), "unresolved this in '{}'", a.expr);
        }
        assert_eq!(Plan::udf_inputs(&dxg), vec!["C", "P", "S"]);
    }
}
